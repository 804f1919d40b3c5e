package core

import (
	"math/rand"
	"strings"
	"testing"

	"dixq/internal/index"
	"dixq/internal/opt"
	"dixq/internal/plan"
	"dixq/internal/stats"
	"dixq/internal/xmark"
	"dixq/internal/xmltree"
	"dixq/internal/xq"
)

// joinQuery is the canonical decorrelatable shape: a nested loop with a
// separable value-join equality.
const joinQuery = `for $x in document("d")/db/as/rec
 return for $y in document("d")/db/bs/rec
 where $x/k = $y/k return <m>{$x/p/text()}{$y/p/text()}</m>`

// TestAutoModeDigitIdentity is the optimizer's soundness gate: whatever
// the cost model decides, ModeAuto must produce encodings digit-identical
// to both forced modes — with and without statistics, with and without a
// positional variable, across join shapes.
func TestAutoModeDigitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	queries := []string{
		joinQuery,
		`for $x in document("d")/db/as/rec
		 let $m := for $y in document("d")/db/bs/rec where $y/k = $x/k return $y
		 return <n c="{count($m)}">{$x/p/text()}</n>`,
		`for $x at $i in document("d")/db/as/rec
		 return for $y in document("d")/db/bs/rec
		 where $x/k = $y/k and $y/p != "0"
		 return ($i, $y/p/text())`,
		`for $x in document("d")/db/as/rec
		 return for $y in document("d")/db/bs/rec
		 where $x/k = $y/k
		 return for $z in document("d")/db/as/rec
		 where $z/k = $y/k
		 return count($z)`,
	}
	for trial := 0; trial < 10; trial++ {
		cat := EncodeCatalog(map[string]xmltree.Forest{"d": joinDocs(rng, 3+rng.Intn(8))})
		st := stats.CollectSet(cat)
		for qi, text := range queries {
			q := Compile(xq.MustParse(text), Options{})
			want, err := q.Eval(cat, Options{ForceJoinMode: ModeMSJ})
			if err != nil {
				t.Fatalf("trial %d query %d: msj: %v", trial, qi, err)
			}
			for name, opts := range map[string]Options{
				"auto-stats":    {DocStats: st},
				"auto-no-stats": {},
				"nlj":           {ForceJoinMode: ModeNLJ},
			} {
				got, err := q.Eval(cat, opts)
				if err != nil {
					t.Fatalf("trial %d query %d (%s): %v", trial, qi, name, err)
				}
				if got.String() != want.String() {
					t.Fatalf("trial %d query %d (%s): encoding diverged\n got %s\nwant %s",
						trial, qi, name, got, want)
				}
			}
		}
	}
}

// TestAutoDemotesTinyLoops: on a document far too small to amortize the
// merge join's sorts, the optimizer must rewrite the loop to the literal
// nested loop and record the decision.
func TestAutoDemotesTinyLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cat := EncodeCatalog(map[string]xmltree.Forest{"d": joinDocs(rng, 3)})
	st := stats.CollectSet(cat)
	q := Compile(xq.MustParse(joinQuery), Options{})
	opts := Options{DocStats: st}

	tree := q.Plan(opts).Tree()
	if strings.Contains(tree, "for-merge-join") || !strings.Contains(tree, "for-nested-loop") {
		t.Fatalf("tiny document kept the merge join:\n%s", tree)
	}
	rep := q.OptReport(opts)
	if rep == nil {
		t.Fatal("ModeAuto produced no optimizer report")
	}
	var costed bool
	for _, d := range rep.Decisions {
		if d.Loop == "$y" {
			costed = true
			if d.Choice != "nested-loop" {
				t.Fatalf("tiny loop chose %q (msj=%.0f nlj=%.0f)", d.Choice, d.CostMergeJoin, d.CostNestedLoop)
			}
			if d.CostNestedLoop >= d.CostMergeJoin {
				t.Fatalf("demoted but nlj cost %.0f >= msj cost %.0f", d.CostNestedLoop, d.CostMergeJoin)
			}
		}
	}
	if !costed {
		t.Fatalf("no join-algorithm decision for $y: %+v", rep.Decisions)
	}

	// The forced modes bypass the optimizer entirely.
	if rep := q.OptReport(Options{ForceJoinMode: ModeMSJ}); rep != nil {
		t.Fatal("forced MSJ produced an optimizer report")
	}
}

// TestAutoKeepsMergeJoinAtScale: with XMark-scale statistics the sorts
// amortize and the decorrelated merge join must survive.
func TestAutoKeepsMergeJoinAtScale(t *testing.T) {
	doc := xmark.Generate(xmark.Config{ScaleFactor: 0.02, Seed: 1})
	cat := EncodeCatalog(map[string]xmltree.Forest{"auction.xml": doc})
	st := stats.CollectSet(cat)
	q := Compile(xq.MustParse(xmark.Q8), Options{})
	opts := Options{DocStats: st}

	tree := q.Plan(opts).Tree()
	if !strings.Contains(tree, "for-merge-join") {
		t.Fatalf("XMark-scale Q8 lost its merge join:\n%s", tree)
	}
	rep := q.OptReport(opts)
	var kept bool
	for _, d := range rep.Decisions {
		if d.Choice == "merge-join" {
			kept = true
		}
	}
	if !kept {
		t.Fatalf("no merge-join decision recorded: %+v", rep)
	}

	// And the result still matches the forced modes at this scale.
	want, err := q.Eval(cat, Options{ForceJoinMode: ModeMSJ})
	if err != nil {
		t.Fatal(err)
	}
	got, err := q.Eval(cat, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatal("optimized Q8 encoding diverged from forced MSJ")
	}
}

// TestAutoKeepsMergeJoinOverIndexSeeks: a seek-backed loop domain must
// be costed per instance, not per coalesced range — one range can cover
// every instance, and pricing the loop at one environment made the
// nested loop look arbitrarily cheap (demoting joins that forced MSJ
// runs ~20× faster).
func TestAutoKeepsMergeJoinOverIndexSeeks(t *testing.T) {
	doc := xmark.Generate(xmark.Config{ScaleFactor: 0.003, Seed: 5})
	cat := EncodeCatalog(map[string]xmltree.Forest{"auction.xml": doc})
	st := stats.CollectSet(cat)
	q := Compile(xq.MustParse(xmark.Q8), Options{})
	opts := Options{DocStats: st, Indexes: index.BuildSet(cat)}

	tree := q.Plan(opts).Tree()
	if !strings.Contains(tree, "index-seek") {
		t.Fatalf("Q8 compiled without index seeks:\n%s", tree)
	}
	if !strings.Contains(tree, "for-merge-join") {
		t.Fatalf("seek-backed Q8 lost its value-join merge join:\n%s", tree)
	}
	for _, d := range q.OptReport(opts).Decisions {
		if d.Loop == "$t" && d.Choice != "merge-join" {
			t.Fatalf("$t chose %q (msj=%.0f nlj=%.0f)", d.Choice, d.CostMergeJoin, d.CostNestedLoop)
		}
	}
	// Every node of the seek plan runs, so every node is estimated.
	plan.Walk(q.Plan(opts), func(n *plan.Node) {
		if n.Est < 0 {
			t.Fatalf("optimized node %s [%s] has no estimate", n.OpName(), n.Detail())
		}
	})
}

// TestAutoEstimatesAnnotated: every node of an optimized plan carries a
// statistics-fed row estimate, while forced-mode plans keep the -1
// sentinel and render no estimate.
func TestAutoEstimatesAnnotated(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cat := EncodeCatalog(map[string]xmltree.Forest{"d": joinDocs(rng, 6)})
	st := stats.CollectSet(cat)
	q := Compile(xq.MustParse(joinQuery), Options{})

	auto := q.Plan(Options{DocStats: st})
	plan.Walk(auto, func(n *plan.Node) {
		if n.Est < 0 {
			t.Fatalf("optimized node %s has no estimate", n.Detail())
		}
	})

	forced := q.Plan(Options{ForceJoinMode: ModeMSJ})
	plan.Walk(forced, func(n *plan.Node) {
		if n.Est != -1 {
			t.Fatalf("forced-mode node %s carries estimate %d", n.Detail(), n.Est)
		}
	})
	if tree := forced.Tree(); strings.Contains(tree, "est:") {
		t.Fatalf("forced-mode plan renders an estimate:\n%s", tree)
	}
}

// TestAutoReportGraph: the join graph of a value join names its base
// access paths, carries at least one equality edge, and pins the loop
// order while still reporting the cheapest order found.
func TestAutoReportGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cat := EncodeCatalog(map[string]xmltree.Forest{"d": joinDocs(rng, 12)})
	st := stats.CollectSet(cat)
	q := Compile(xq.MustParse(joinQuery), Options{})
	rep := q.OptReport(Options{DocStats: st})
	if rep == nil {
		t.Fatal("no report")
	}
	if len(rep.Graph.Vertices) < 2 {
		t.Fatalf("join graph has %d vertices, want >= 2: %+v", len(rep.Graph.Vertices), rep)
	}
	ids := map[int]bool{}
	maxID := plan.MaxID(q.Plan(Options{DocStats: st}))
	for _, v := range rep.Graph.Vertices {
		if v.NodeID < 0 || v.NodeID > maxID {
			t.Fatalf("vertex node ID %d out of plan range [0,%d]", v.NodeID, maxID)
		}
		if ids[v.NodeID] {
			t.Fatalf("duplicate vertex node ID %d", v.NodeID)
		}
		ids[v.NodeID] = true
	}
	if len(rep.Graph.Edges) == 0 {
		t.Fatalf("value join produced no graph edges: %+v", rep)
	}
	for _, e := range rep.Graph.Edges {
		if e.Selectivity <= 0 || e.Selectivity > 1 {
			t.Fatalf("edge selectivity %v out of (0,1]", e.Selectivity)
		}
	}
	if rep.Graph.Order == nil {
		t.Fatal("no join-order cost comparison")
	}
	if !rep.Graph.Order.Pinned {
		t.Fatal("join order must be pinned: loop nesting order is observable")
	}
	if rep.Graph.Order.BestCost > rep.Graph.Order.GivenCost {
		t.Fatalf("best order cost %v exceeds given order cost %v",
			rep.Graph.Order.BestCost, rep.Graph.Order.GivenCost)
	}
}

// TestAutoReportThetaEdge: a value < merge join records its join-graph
// edge under the comparator it joins on, priced at the default condition
// selectivity, with the edge running from the predicate's left operand to
// its right — so < and > over the same keys record opposite edges.
func TestAutoReportThetaEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cat := EncodeCatalog(map[string]xmltree.Forest{"d": joinDocs(rng, 12)})
	st := stats.CollectSet(cat)
	var edges [2]opt.Edge
	for i, op := range []string{"<", ">"} {
		q := Compile(xq.MustParse(`for $x in document("d")/db/as/rec
		 return for $y in document("d")/db/bs/rec
		 where $x/k `+op+` $y/k return "o"`), Options{})
		rep := q.OptReport(Options{DocStats: st})
		if len(rep.Decisions) != 1 || rep.Decisions[0].Choice != "merge-join" || len(rep.Graph.Edges) != 1 {
			t.Fatalf("%s: want one kept merge join with one edge: %+v", op, rep)
		}
		edges[i] = rep.Graph.Edges[0]
		if edges[i].Pred != "<" || edges[i].Selectivity != 0.5 {
			t.Fatalf("%s: edge %+v, want pred < at selectivity 0.5", op, edges[i])
		}
	}
	if edges[0].From != edges[1].To || edges[0].To != edges[1].From {
		t.Fatalf("< and > recorded edges %+v and %+v, want opposite directions", edges[0], edges[1])
	}
}

// TestAutoPlanCacheKeysOnStatsEpoch: two stats sets at different epochs
// must not share a memoized plan, while the same set is shared.
func TestAutoPlanCacheKeysOnStatsEpoch(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	cat := EncodeCatalog(map[string]xmltree.Forest{"d": joinDocs(rng, 5)})
	st1 := stats.CollectSet(cat)
	st1.Epoch = 1
	st2 := stats.CollectSet(cat)
	st2.Epoch = 2
	q := Compile(xq.MustParse(joinQuery), Options{})
	p1 := q.Plan(Options{DocStats: st1})
	if q.Plan(Options{DocStats: st1}) != p1 {
		t.Fatal("same stats set did not share the memoized plan")
	}
	if q.Plan(Options{DocStats: st2}) == p1 {
		t.Fatal("different stats epoch shared a memoized plan")
	}
}

package core

import (
	"math/rand"
	"strings"
	"testing"

	"dixq/internal/index"
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

// TestAutoModeDigitIdentity is the estimator's soundness gate: ModeAuto
// must produce encodings digit-identical to both forced modes — with and without statistics, with and without a
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

// TestAutoKeepsMergeJoinAtScale: with XMark-scale statistics DI-OPT runs
// Q8's decorrelated merge join, and its result is forced MSJ's.
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

// TestAutoKeepsMergeJoinOverIndexSeeks: over index seeks DI-OPT runs
// Q8's value-join merge join, and every node of the seek plan carries an
// estimate.
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

package core_test

import (
	"fmt"
	"strings"
	"testing"

	"dixq/internal/core"
	"dixq/internal/difftest"
	"dixq/internal/index"
	"dixq/internal/plan"
	"dixq/internal/xmark"
	"dixq/internal/xmltree"
	"dixq/internal/xq"
)

// xmarkQueries is the XMark suite, Q1–Q20.
var xmarkQueries = []string{xmark.Q1, xmark.Q2, xmark.Q3, xmark.Q4, xmark.Q5,
	xmark.Q6, xmark.Q7, xmark.Q8, xmark.Q9, xmark.Q10, xmark.Q11, xmark.Q12,
	xmark.Q13, xmark.Q14, xmark.Q15, xmark.Q16, xmark.Q17, xmark.Q18,
	xmark.Q19, xmark.Q20}

// planConfigs is every {scan, idx} × {DI-MSJ, DI-NLJ} combination of
// plan options over one catalog, all without statistics.
func planConfigs(cat core.Catalog) map[string]core.Options {
	set := index.BuildSet(cat)
	out := map[string]core.Options{}
	for _, mode := range []core.Mode{core.ModeMSJ, core.ModeNLJ} {
		out[mode.String()+"-scan"] = core.Options{ForceJoinMode: mode}
		out[mode.String()+"-idx"] = core.Options{ForceJoinMode: mode, Indexes: set}
	}
	return out
}

// assertStatisticsOnlyEstimate checks that the plan of a query compiled
// with statistics is the plan compiled without, byte for byte once its
// estimates are stripped; that every node of the plan with statistics
// carries an estimate; and that no node of the plan without carries one.
func assertStatisticsOnlyEstimate(t *testing.T, what string, e xq.Expr, opts core.Options, st *index.Set) {
	t.Helper()
	q := core.Compile(e, core.Options{})
	bare := q.Plan(opts)
	withStats := opts
	withStats.DocStats = st
	estimated := q.Plan(withStats)
	if got, want := core.EstAnnotation.ReplaceAllString(estimated.Tree(), ""), bare.Tree(); got != want {
		t.Fatalf("%s: statistics changed the plan:\n got\n%s\nwant\n%s", what, got, want)
	}
	plan.Walk(estimated, func(n *plan.Node) {
		if n.Est < 0 {
			t.Fatalf("%s: node %s [%s] compiled with statistics has no estimate", what, n.OpName(), n.Detail())
		}
	})
	plan.Walk(bare, func(n *plan.Node) {
		if n.Est != -1 {
			t.Fatalf("%s: node %s [%s] compiled without statistics carries estimate %d", what, n.OpName(), n.Detail(), n.Est)
		}
	})
}

// The tests below are named after the default compile path, which feeds
// every DI plan the catalog's statistics: statistics only estimate. A plan
// compiled with them is the plan compiled without plus an estimate on
// every node, and it does the same work and computes the same answer.

// TestAutoPlanIsEstimatedMSJPlan: on XMark Q1–Q20 across four scales and
// on every difftest corpus case, under both plan modes with and without
// structural indexes, statistics change nothing of the plan but its
// estimates.
func TestAutoPlanIsEstimatedMSJPlan(t *testing.T) {
	for _, sf := range []float64{0.0005, 0.002, 0.01, 0.04} {
		doc := xmark.Generate(xmark.Config{ScaleFactor: sf, Seed: 1})
		cat := core.EncodeCatalog(map[string]xmltree.Forest{"auction.xml": doc})
		st := index.BuildSet(cat)
		for name, opts := range planConfigs(cat) {
			for i, query := range xmarkQueries {
				assertStatisticsOnlyEstimate(t, fmt.Sprintf("sf %g Q%d %s", sf, i+1, name), xq.MustParse(query), opts, st)
			}
		}
	}
	cat, _ := difftest.Docs(t, 0.002, 17)
	st := index.BuildSet(cat)
	for name, opts := range planConfigs(cat) {
		for _, c := range difftest.Corpus() {
			assertStatisticsOnlyEstimate(t, c.Name+" "+name, xq.MustParse(c.Query), opts, st)
		}
	}
}

// TestAutoEstimatesAnnotated: a statistics set that lacks the queried
// documents still estimates every node, at a nominal size, and still
// changes nothing else: over the corpus and over shapes it lacks — a
// pruned path, a disjunction, roots() over a value that is not
// doc-rooted, an invalid operator.
func TestAutoEstimatesAnnotated(t *testing.T) {
	cat, _ := difftest.Docs(t, 0.002, 17)
	empty := &index.Set{Docs: map[string]*index.DocIndex{}}
	shapes := []xq.Expr{
		xq.MustParse(`<r>{document("d")/a/nosuch}</r>`),
		xq.MustParse(`for $x in document("d")//b where $x = "t" or $x = "u" return $x`),
		xq.MustParse(`roots((<a><b/></a>)/b)`),
		xq.Call{Fn: "bogus"},
	}
	for _, c := range difftest.Corpus() {
		shapes = append(shapes, xq.MustParse(c.Query))
	}
	for name, opts := range planConfigs(cat) {
		for i, e := range shapes {
			assertStatisticsOnlyEstimate(t, fmt.Sprintf("nominal shape %d %s", i, name), e, opts, empty)
		}
	}
}

// TestAutoWorkMatchesMSJWithoutStats: the join queries do DI-MSJ's work
// with statistics as without: the same merge joins, nested loops and
// embedded tuples, not a nested loop whose embedding grows with the
// square of the document.
func TestAutoWorkMatchesMSJWithoutStats(t *testing.T) {
	doc := xmark.Generate(xmark.Config{ScaleFactor: 0.01, Seed: 1})
	cat := core.EncodeCatalog(map[string]xmltree.Forest{"auction.xml": doc})
	st := index.BuildSet(cat)
	for _, tc := range []struct{ name, query string }{
		{"Q8", xmark.Q8}, {"Q9", xmark.Q9}, {"Q11", xmark.Q11}, {"Q12", xmark.Q12},
	} {
		q := core.Compile(xq.MustParse(tc.query), core.Options{})
		var work [2]core.Stats
		var results [2]string
		for i, docStats := range []*index.Set{st, nil} {
			rel, err := q.Eval(cat, core.Options{DocStats: docStats, Stats: &work[i]})
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			results[i] = rel.String()
		}
		est, bare := work[0], work[1]
		if est.MergeJoins != bare.MergeJoins || est.NestedLoops != bare.NestedLoops ||
			est.EmbeddedTuples != bare.EmbeddedTuples {
			t.Errorf("%s: with statistics %d merge joins, %d nested loops, %d embedded tuples; without %d, %d, %d",
				tc.name, est.MergeJoins, est.NestedLoops, est.EmbeddedTuples,
				bare.MergeJoins, bare.NestedLoops, bare.EmbeddedTuples)
		}
		if results[0] != results[1] {
			t.Errorf("%s: the encoding with statistics diverged from the one without", tc.name)
		}
	}
}

// assertKeepsMergeJoin compiles Q8 with XMark-scale statistics and checks
// that it keeps its decorrelated merge join and answers as the plan
// compiled without statistics does.
func assertKeepsMergeJoin(t *testing.T, sf float64, seed int64, indexed bool) {
	t.Helper()
	doc := xmark.Generate(xmark.Config{ScaleFactor: sf, Seed: seed})
	cat := core.EncodeCatalog(map[string]xmltree.Forest{"auction.xml": doc})
	opts := core.Options{DocStats: index.BuildSet(cat)}
	if indexed {
		opts.Indexes = index.BuildSet(cat)
	}
	q := core.Compile(xq.MustParse(xmark.Q8), core.Options{})
	tree := q.Plan(opts).Tree()
	if !strings.Contains(tree, "for-merge-join") {
		t.Fatalf("sf %g Q8 with statistics lost its merge join:\n%s", sf, tree)
	}
	if indexed && !strings.Contains(tree, "index-seek") {
		t.Fatalf("sf %g Q8 compiled without index seeks:\n%s", sf, tree)
	}
	got, err := q.Eval(cat, opts)
	if err != nil {
		t.Fatal(err)
	}
	bare := opts
	bare.DocStats = nil
	want, err := q.Eval(cat, bare)
	if err != nil {
		t.Fatal(err)
	}
	difftest.IdenticalRelations(t, fmt.Sprintf("sf %g Q8 with statistics", sf), got, want)
}

// TestAutoKeepsMergeJoinAtScale: Q8 over scans keeps its merge join.
func TestAutoKeepsMergeJoinAtScale(t *testing.T) {
	assertKeepsMergeJoin(t, 0.02, 1, false)
}

// TestAutoKeepsMergeJoinOverIndexSeeks: Q8 over index seeks keeps its
// value-join merge join.
func TestAutoKeepsMergeJoinOverIndexSeeks(t *testing.T) {
	assertKeepsMergeJoin(t, 0.003, 5, true)
}

// TestAutoPlanCacheKeysOnStatsEpoch: a statistics set keys the memoized
// plan by identity: the same set shares it, another set (a later epoch)
// and no set do not.
func TestAutoPlanCacheKeysOnStatsEpoch(t *testing.T) {
	cat, _ := difftest.Docs(t, 0.0005, 17)
	st1, st2 := index.BuildSet(cat), index.BuildSet(cat)
	st1.Epoch, st2.Epoch = 1, 2
	q := core.Compile(xq.MustParse(xmark.Q8), core.Options{})
	p1 := q.Plan(core.Options{DocStats: st1})
	if q.Plan(core.Options{DocStats: st1}) != p1 {
		t.Fatal("same stats set did not share the memoized plan")
	}
	if q.Plan(core.Options{DocStats: st2}) == p1 {
		t.Fatal("different stats epoch shared a memoized plan")
	}
	if q.Plan(core.Options{}) == p1 {
		t.Fatal("a plan without statistics shared the estimated plan")
	}
}

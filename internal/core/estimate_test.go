package core_test

import (
	"fmt"
	"regexp"
	"testing"

	"dixq/internal/core"
	"dixq/internal/difftest"
	"dixq/internal/index"
	"dixq/internal/plan"
	"dixq/internal/stats"
	"dixq/internal/xmark"
	"dixq/internal/xmltree"
	"dixq/internal/xq"
)

// estAnnotation matches the estimate a plan line renders, beside the
// digit width or alone on a predicate: the only text a DI-OPT plan may
// add to the DI-MSJ plan it runs.
var estAnnotation = regexp.MustCompile(`, est: \d+| \{est: \d+\}`)

// catalogConfigs is every {no stats, stats} × {scan, idx} combination of
// DI-OPT options over one catalog.
func catalogConfigs(cat core.Catalog) map[string]core.Options {
	set, st := index.BuildSet(cat), stats.CollectSet(cat)
	return map[string]core.Options{
		"scan":       {},
		"idx":        {Indexes: set},
		"scan-stats": {DocStats: st},
		"idx-stats":  {Indexes: set, DocStats: st},
	}
}

// assertEstimatedMSJPlan checks that the DI-OPT plan of a query under the
// given options is the DI-MSJ plan, byte for byte once its estimates are
// stripped, and that every one of its nodes carries an estimate.
func assertEstimatedMSJPlan(t *testing.T, what, query string, opts core.Options) {
	t.Helper()
	e, err := xq.Parse(query)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	q := core.Compile(e, core.Options{})
	auto := q.Plan(opts)
	msjOpts := opts
	msjOpts.ForceJoinMode, msjOpts.DocStats = core.ModeMSJ, nil
	got, want := estAnnotation.ReplaceAllString(auto.Tree(), ""), q.Plan(msjOpts).Tree()
	if got != want {
		t.Fatalf("%s: DI-OPT plan is not the DI-MSJ plan:\n got\n%s\nwant\n%s", what, got, want)
	}
	plan.Walk(auto, func(n *plan.Node) {
		if n.Est < 0 {
			t.Fatalf("%s: DI-OPT node %s [%s] has no estimate", what, n.OpName(), n.Detail())
		}
	})
}

// TestAutoPlanIsEstimatedMSJPlan: DI-OPT only estimates. On XMark Q1–Q20
// across four scales and on every difftest corpus case, with and without
// statistics and indexes, the plan it runs is the DI-MSJ plan with an
// estimate on every node.
func TestAutoPlanIsEstimatedMSJPlan(t *testing.T) {
	queries := []string{xmark.Q1, xmark.Q2, xmark.Q3, xmark.Q4, xmark.Q5,
		xmark.Q6, xmark.Q7, xmark.Q8, xmark.Q9, xmark.Q10, xmark.Q11, xmark.Q12,
		xmark.Q13, xmark.Q14, xmark.Q15, xmark.Q16, xmark.Q17, xmark.Q18,
		xmark.Q19, xmark.Q20}
	for _, sf := range []float64{0.0005, 0.002, 0.01, 0.04} {
		doc := xmark.Generate(xmark.Config{ScaleFactor: sf, Seed: 1})
		cat := core.EncodeCatalog(map[string]xmltree.Forest{"auction.xml": doc})
		for name, opts := range catalogConfigs(cat) {
			for i, query := range queries {
				assertEstimatedMSJPlan(t, fmt.Sprintf("sf %g Q%d %s", sf, i+1, name), query, opts)
			}
		}
	}
	cat, _ := difftest.Docs(t, 0.002, 17)
	for name, opts := range catalogConfigs(cat) {
		for _, c := range difftest.Corpus() {
			assertEstimatedMSJPlan(t, c.Name+" "+name, c.Query, opts)
		}
	}
}

// TestAutoWorkMatchesMSJWithoutStats: without statistics DI-OPT does the
// DI-MSJ run's work on the join queries — the same merge joins, nested
// loops and embedded tuples — instead of a nested loop whose embedding
// grows with the square of the document.
func TestAutoWorkMatchesMSJWithoutStats(t *testing.T) {
	doc := xmark.Generate(xmark.Config{ScaleFactor: 0.01, Seed: 1})
	cat := core.EncodeCatalog(map[string]xmltree.Forest{"auction.xml": doc})
	for _, tc := range []struct{ name, query string }{
		{"Q8", xmark.Q8}, {"Q9", xmark.Q9}, {"Q11", xmark.Q11}, {"Q12", xmark.Q12},
	} {
		q := core.Compile(xq.MustParse(tc.query), core.Options{})
		var work [2]core.Stats
		for i, mode := range []core.Mode{core.ModeAuto, core.ModeMSJ} {
			if _, err := q.Eval(cat, core.Options{ForceJoinMode: mode, Parallelism: 1, Stats: &work[i]}); err != nil {
				t.Fatalf("%s %s: %v", tc.name, mode, err)
			}
		}
		opt, msj := work[0], work[1]
		if opt.MergeJoins != msj.MergeJoins || opt.NestedLoops != msj.NestedLoops ||
			opt.EmbeddedTuples != msj.EmbeddedTuples {
			t.Errorf("%s: DI-OPT ran %d merge joins, %d nested loops, %d embedded tuples; DI-MSJ %d, %d, %d",
				tc.name, opt.MergeJoins, opt.NestedLoops, opt.EmbeddedTuples,
				msj.MergeJoins, msj.NestedLoops, msj.EmbeddedTuples)
		}
	}
}

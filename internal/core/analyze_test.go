package core

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"dixq/internal/index"
	"dixq/internal/plan"
	"dixq/internal/stats"
	"dixq/internal/xmark"
	"dixq/internal/xq"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden analyze-plan files")

// scrubStats masks the run-dependent actuals (granted workers, wall time,
// allocated bytes) in an analyze rendering; calls, rows, spilled runs,
// skipped tuples and partitions are deterministic for a fixed document, so
// they stay and are locked by the goldens.
var scrubStats = regexp.MustCompile(`workers=\d+ time=[^ )]+ allocs=-?\d+`)

func scrubAnalyze(s string) string {
	return scrubStats.ReplaceAllString(s, "workers=_ time=_ allocs=_")
}

// TestAnalyzeGoldenPlans locks the analyze-mode plan renderings for the
// paper's three benchmark queries under both forced join modes and the
// cost-based optimizer (fed real statistics): the plan shape, the static
// annotations — including the optimizer's per-operator row estimates —
// and the per-operator calls/rows actuals. A diff here means the
// compiler, the optimizer's costing, the executor's dispatch, or the
// instrumentation changed — regenerate with `go test -run Golden -update`
// and review the diff consciously.
func TestAnalyzeGoldenPlans(t *testing.T) {
	cat, _ := generatedCatalog(0.0005, 20030609)
	queries := []struct {
		name  string
		query string
	}{
		{"q8", xmark.Q8},
		{"q9", xmark.Q9},
		{"q13", xmark.Q13},
		// The aggregation/arithmetic/positional/order-by extensions:
		// q3 locks take/arith/value-comparison plans, q5 the aggregate
		// reduction, q19 the order-by lowering with its rank digit.
		{"q3", xmark.Q3},
		{"q5", xmark.Q5},
		{"q19", xmark.Q19},
	}
	modes := []struct {
		name  string
		mode  Mode
		stats *stats.Set
	}{
		{"msj", ModeMSJ, nil},
		{"nlj", ModeNLJ, nil},
		{"opt", ModeAuto, stats.CollectSet(cat)},
	}
	// The indexed variants rerun each query with the catalog's structural
	// indexes attached, locking the access-path marks ([access=index],
	// [access=pruned]) and the skipped-tuple actuals of the seek plans.
	variants := []struct {
		suffix  string
		indexes *index.Set
	}{
		{"", nil},
		{"_idx", index.BuildSet(cat)},
	}
	for _, qq := range queries {
		for _, mm := range modes {
			for _, vv := range variants {
				t.Run(qq.name+"-"+mm.name+vv.suffix, func(t *testing.T) {
					q := Compile(xq.MustParse(qq.query), Options{})
					// Parallelism is pinned to 1 so the partition counts locked
					// by the goldens cannot shift with GOMAXPROCS.
					text, rs, err := q.ExplainAnalyze(cat, Options{ForceJoinMode: mm.mode, DocStats: mm.stats, Parallelism: 1, Indexes: vv.indexes})
					if err != nil {
						t.Fatal(err)
					}
					if rs.Total() <= 0 {
						t.Error("analyze run recorded no time at all")
					}
					got := scrubAnalyze(text)
					path := filepath.Join("testdata", "analyze_"+qq.name+"_"+mm.name+vv.suffix+".golden")
					if *updateGolden {
						if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
							t.Fatal(err)
						}
						return
					}
					want, err := os.ReadFile(path)
					if err != nil {
						t.Fatalf("missing golden (run with -update to create): %v", err)
					}
					if got != string(want) {
						t.Errorf("analyze plan drifted from %s:\n--- got ---\n%s\n--- want ---\n%s",
							path, got, want)
					}
				})
			}
		}
	}
}

// evalStats runs a compiled query and returns the executed plan with the
// run's own per-node actuals — what every evaluation records, no analyze
// request involved.
func evalStats(t *testing.T, q *Query, cat Catalog, opts Options) (*plan.Node, *plan.RunStats) {
	t.Helper()
	st := &Stats{}
	opts.Stats = st
	if _, err := q.Eval(cat, opts); err != nil {
		t.Fatal(err)
	}
	return q.Plan(opts), st.Run
}

// TestQ13StreamsAllPathChains asserts fusion end to end on Q13 (the
// path-extraction-heavy benchmark query) from the run's own stats: every
// path operator below a chain head ran inside the head's fused pass — it
// was called and its surviving rows were counted, but it never became the
// executing node, so its exclusive time is zero and the head is charged
// for the whole chain.
func TestQ13StreamsAllPathChains(t *testing.T) {
	cat, _ := generatedCatalog(0.002, 30)
	q := Compile(xq.MustParse(xmark.Q13), Options{})
	p, rs := evalStats(t, q, cat, Options{})
	heads, fused := 0, 0
	var walk func(n *plan.Node, inChain bool)
	walk = func(n *plan.Node, inChain bool) {
		if isPathOp(n) {
			ns := rs.Node(n.ID)
			if ns.Calls < 1 {
				t.Errorf("path operator %s never ran", n.OpName())
			}
			if inChain {
				fused++
				if ns.Time != 0 {
					t.Errorf("fused path operator %s was charged %v of its own", n.OpName(), ns.Time)
				}
			} else {
				heads++
			}
		}
		for _, c := range n.Inputs {
			walk(c, isPathOp(n))
		}
	}
	walk(p, false)
	if heads == 0 || fused == 0 {
		t.Fatalf("Q13 ran %d chain heads and %d fused operators; want both", heads, fused)
	}
}

// TestObservedRunEqualsUnobserved is the property the single accounting
// exists for: asking for the analyze report never chooses the execution.
// For every XMark query × {scan, indexed} × Parallelism {1, 3} (thresholds
// lowered so the parallel variants really fan out, a sort budget small
// enough to spill the joins), a run with Options.Analyze set and a run
// without produce the digit-identical relation and identical per-node
// deterministic actuals — everything but time, allocations and the granted
// worker count — and the phase Stats sum to exactly the per-node total.
func TestObservedRunEqualsUnobserved(t *testing.T) {
	forceParallelProbe(t)
	cat, _ := generatedCatalog(0.004, 20)
	indexed := index.BuildSet(cat)
	dir := t.TempDir()
	fused, seeks, fannedOut, spills := 0, 0, 0, 0
	for _, qq := range xmark.All {
		q := Compile(xq.MustParse(qq.Text), Options{})
		for _, ix := range []*index.Set{nil, indexed} {
			for _, par := range []int{1, 3} {
				opts := Options{ForceJoinMode: ModeMSJ, Indexes: ix, Parallelism: par, MemBudget: 4 << 10, SpillDir: dir}
				plain, observed := opts, opts
				plain.Stats, observed.Stats = &Stats{}, &Stats{}
				observed.Analyze = &plan.RunStats{}
				want, err := q.Eval(cat, plain)
				if err != nil {
					t.Fatal(err)
				}
				got, err := q.Eval(cat, observed)
				if err != nil {
					t.Fatal(err)
				}
				what := qq.Name
				if ix != nil {
					what += "/idx"
				}
				if par > 1 {
					what += "/par"
				}
				identicalRelations(t, what, got, want)
				if observed.Stats.Run != observed.Analyze {
					t.Fatalf("%s: Stats.Run is not the caller's Analyze block", what)
				}
				var allocs int64
				plan.Walk(q.Plan(opts), func(n *plan.Node) {
					a, b := plain.Stats.Run.Node(n.ID), observed.Analyze.Node(n.ID)
					if a.Allocs != 0 {
						t.Errorf("%s: %s: plain run read allocations (%d)", what, n.OpName(), a.Allocs)
					}
					allocs += b.Allocs
					if isPathOp(n) && a.Workers >= 2 {
						fannedOut++
					}
					a.Time, a.Allocs, a.Workers, b.Time, b.Allocs, b.Workers = 0, 0, 0, 0, 0, 0
					if a != b {
						t.Errorf("%s: node %d %s: plain %+v, analyzed %+v", what, n.ID, n.OpName(), a, b)
					}
					if isPathOp(n) && isPathOp(n.Inputs[0]) && b.Calls > 0 {
						fused++
					}
					if n.Op == plan.OpIndexPath && a.Calls > 0 && a.Skipped > 0 {
						seeks++
					}
					if a.Spilled > 0 {
						spills++
					}
				})
				if allocs <= 0 {
					t.Errorf("%s: analyze run read no allocations", what)
				}
				for _, st := range []*Stats{plain.Stats, observed.Stats} {
					if st.Total() != st.Run.Total() || st.Total() <= 0 {
						t.Errorf("%s: phase total %v, per-node total %v", what, st.Total(), st.Run.Total())
					}
				}
			}
		}
	}
	if fused == 0 || seeks == 0 || fannedOut == 0 || spills == 0 {
		t.Errorf("matrix exercised %d fused path steps, %d index seeks, %d morsel-parallel chains and %d spilling operators; want all four",
			fused, seeks, fannedOut, spills)
	}
}

// BenchmarkAnalyzeOverhead keeps the price of asking for the analyze
// report visible: plain versus Analyze Eval of a join (Q1), a path chain
// (Q2) and the reconstruction query (Q13) at the mixed-rw benchmark size,
// indexes on, serial. The two execute identically; the difference is the
// memory-statistics read per operator boundary.
func BenchmarkAnalyzeOverhead(b *testing.B) {
	cat, _ := generatedCatalog(0.05, 1)
	indexed := index.BuildSet(cat)
	for _, qq := range []struct{ name, text string }{{"Q1", xmark.Q1}, {"Q2", xmark.Q2}, {"Q13", xmark.Q13}} {
		q := Compile(xq.MustParse(qq.text), Options{})
		for _, analyze := range []bool{false, true} {
			name := qq.name + "/plain"
			if analyze {
				name = qq.name + "/analyze"
			}
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					opts := Options{Indexes: indexed, Parallelism: 1}
					if analyze {
						opts.Analyze = &plan.RunStats{}
					}
					if _, err := q.Eval(cat, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

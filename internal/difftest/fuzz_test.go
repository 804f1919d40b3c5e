package difftest

import (
	"math/rand"
	"testing"

	"dixq/internal/core"
	"dixq/internal/index"
	"dixq/internal/stats"
	"dixq/internal/xmark"
	"dixq/internal/xq"
)

// FuzzParallelExecute fuzzes the parallel runtime's determinism claim:
// for any query text and worker count, the parallel evaluation must
// produce the relation the serial evaluation produces, digit for digit.
// The corpus is seeded with the paper's benchmark queries, the end-to-end
// seed corpus, and generator-produced random expressions, at worker
// counts across the pool's label range.
func FuzzParallelExecute(f *testing.F) {
	for _, q := range []string{xmark.Q8, xmark.Q9, xmark.Q13, xmark.Q3, xmark.Q19, xmark.Q20} {
		f.Add(q, uint8(4))
	}
	for _, c := range Corpus() {
		f.Add(c.Query, uint8(2))
		f.Add(c.Query, uint8(8))
	}
	for _, seed := range []int64{1, 7, 42, 20030609} {
		rng := rand.New(rand.NewSource(seed))
		e := xq.RandomExpr(rng, []string{"d", "auction.xml"}, 4)
		f.Add(e.String(), uint8(seed%5+2))
	}

	cat, _ := Docs(f, 0.0005, 17)

	f.Fuzz(func(t *testing.T, src string, workers uint8) {
		e, err := xq.Parse(src)
		if err != nil {
			return
		}
		// Worker counts 2..17 cover the whole label range of the pool.
		par := int(workers)%16 + 2

		q := core.Compile(e, core.Options{})
		for _, mode := range []core.Mode{core.ModeMSJ, core.ModeNLJ} {
			serialOpts := core.Options{ForceJoinMode: mode, Parallelism: 1, MaxTuples: 200_000}
			parOpts := core.Options{ForceJoinMode: mode, Parallelism: par, MaxTuples: 200_000}
			want, werr := q.Eval(cat, serialOpts)
			got, gerr := q.Eval(cat, parOpts)
			if (werr != nil) != (gerr != nil) {
				t.Fatalf("%s on %q (par=%d): serial err %v, parallel err %v",
					mode, src, par, werr, gerr)
			}
			if werr != nil {
				continue
			}
			IdenticalRelations(t, mode.String(), got, want)
		}
	})
}

// FuzzIndexedExecute fuzzes the access-path substitution claim: for any
// query text and plan mode, the index-backed evaluation (seeks
// and dataguide pruning on) must produce the relation the scan-backed
// evaluation produces, digit for digit. The corpus seeds cover the
// benchmark queries — whose hoisted document chains actually seek — plus
// the end-to-end seed corpus and generated random expressions, which
// exercise pruning (absent labels) and the runtime scan fallback (chains
// under refined environments).
func FuzzIndexedExecute(f *testing.F) {
	for _, q := range []string{xmark.Q8, xmark.Q9, xmark.Q13, xmark.Q5, xmark.Q15} {
		f.Add(q, false)
	}
	for _, c := range Corpus() {
		f.Add(c.Query, false)
		f.Add(c.Query, true)
	}
	f.Add(`document("d")/nosuch/b`, false)
	f.Add(`document("d")//nosuch`, true)
	for _, seed := range []int64{3, 11, 99, 20030609} {
		rng := rand.New(rand.NewSource(seed))
		e := xq.RandomExpr(rng, []string{"d", "auction.xml"}, 4)
		f.Add(e.String(), seed%2 == 0)
	}

	cat, _ := Docs(f, 0.0005, 17)
	set := index.BuildSet(cat)

	f.Fuzz(func(t *testing.T, src string, nlj bool) {
		e, err := xq.Parse(src)
		if err != nil {
			return
		}
		mode := core.ModeMSJ
		if nlj {
			mode = core.ModeNLJ
		}
		q := core.Compile(e, core.Options{})
		scanOpts := core.Options{ForceJoinMode: mode, Parallelism: 1, MaxTuples: 200_000}
		idxOpts := scanOpts
		idxOpts.Indexes = set
		want, werr := q.Eval(cat, scanOpts)
		got, gerr := q.Eval(cat, idxOpts)
		if werr != nil || gerr != nil {
			// A pruned or seeked plan can skip work a scan-backed run spends
			// its MaxTuples budget on, so budget errors may legitimately hit
			// one side only; both results are unavailable then, and there is
			// nothing to compare.
			return
		}
		IdenticalRelations(t, mode.String()+"-idx", got, want)
	})
}

// FuzzOptimizedExecute fuzzes the cost-based optimizer's soundness claim:
// for any query text and statistics configuration, the plan DI-OPT picks
// — whatever mix of merge joins and demoted nested loops its cost model
// chose — must produce the relation both forced modes produce, digit for
// digit. The corpus seeds cover the benchmark queries, the end-to-end
// seed corpus, and generated random expressions; the stats flag flips
// between real collected statistics and the nominal no-stats estimates,
// so both costing regimes face the full input space.
func FuzzOptimizedExecute(f *testing.F) {
	for _, q := range []string{xmark.Q8, xmark.Q9, xmark.Q13, xmark.Q11, xmark.Q18, xmark.Q19} {
		f.Add(q, true)
	}
	for _, c := range Corpus() {
		f.Add(c.Query, true)
		f.Add(c.Query, false)
	}
	for _, seed := range []int64{5, 13, 77, 20030609} {
		rng := rand.New(rand.NewSource(seed))
		e := xq.RandomExpr(rng, []string{"d", "auction.xml"}, 4)
		f.Add(e.String(), seed%2 == 0)
	}

	cat, _ := Docs(f, 0.0005, 17)
	st := stats.CollectSet(cat)

	f.Fuzz(func(t *testing.T, src string, withStats bool) {
		e, err := xq.Parse(src)
		if err != nil {
			return
		}
		q := core.Compile(e, core.Options{})
		optOpts := core.Options{ForceJoinMode: core.ModeAuto, Parallelism: 1, MaxTuples: 200_000}
		if withStats {
			optOpts.DocStats = st
		}
		got, gerr := q.Eval(cat, optOpts)
		for _, mode := range []core.Mode{core.ModeMSJ, core.ModeNLJ} {
			opts := optOpts
			opts.ForceJoinMode = mode
			opts.DocStats = nil
			want, werr := q.Eval(cat, opts)
			if werr != nil || gerr != nil {
				// The join algorithms differ in how much work the MaxTuples
				// budget meters (that asymmetry is the optimizer's whole
				// point), so budget errors may legitimately hit one side
				// only; there is nothing to compare then.
				continue
			}
			IdenticalRelations(t, "opt-vs-"+mode.String(), got, want)
		}
	})
}

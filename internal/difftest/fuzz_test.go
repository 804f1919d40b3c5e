package difftest

import (
	"fmt"
	"math/rand"
	"testing"

	"dixq/internal/core"
	"dixq/internal/index"
	"dixq/internal/xmark"
	"dixq/internal/xq"
)

// FuzzParallelExecute fuzzes the determinism of the merge join's
// concurrent side sorts: for any query text and sort budget, the run in
// which every group reorder spills — the merge join's two sides at once,
// on their two goroutines, each cutting its runs at the budget — must
// produce the relation the in-memory run produces, digit for digit, and
// fail exactly when it fails. The corpus is seeded with the paper's
// benchmark queries, the end-to-end seed corpus, and generator-produced
// random expressions, at budgets of a few bytes, small enough that every
// non-empty sort spills several runs.
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

	f.Fuzz(func(t *testing.T, src string, budget uint8) {
		e, err := xq.Parse(src)
		if err != nil {
			return
		}
		q := core.Compile(e, core.Options{})
		dir := t.TempDir()
		for _, mode := range []core.Mode{core.ModeMSJ, core.ModeNLJ} {
			memOpts := core.Options{ForceJoinMode: mode, MaxTuples: 200_000}
			spillOpts := memOpts
			spillOpts.MemBudget, spillOpts.SpillDir = int64(budget)+1, dir
			want, werr := q.Eval(cat, memOpts)
			got, gerr := q.Eval(cat, spillOpts)
			if (werr != nil) != (gerr != nil) {
				t.Fatalf("%s on %q (budget %d): in-memory err %v, spilled err %v",
					mode, src, spillOpts.MemBudget, werr, gerr)
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
// exercise pruning (absent labels) and seeks served under refined
// environments.
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
		scanOpts := core.Options{ForceJoinMode: mode, MaxTuples: 200_000}
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

// FuzzOptimizedExecute, named for the estimator's entry point
// opt.Optimize, fuzzes the estimator's soundness claim: for any query
// text, a DI-MSJ plan compiled with statistics is the plan compiled
// without, estimates added, so it must fail exactly when the plan without
// statistics fails, with the same error, and otherwise produce the
// relation both plan modes produce without statistics, digit for digit.
// The corpus seeds cover the benchmark queries, the end-to-end seed
// corpus, and generated random expressions; the stats flag flips between
// real collected statistics and a set that lacks every document, whose
// estimates are nominal, so both estimation regimes face the full input
// space.
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
	collected, nominal := index.BuildSet(cat), &index.Set{Docs: map[string]*index.DocIndex{}}

	f.Fuzz(func(t *testing.T, src string, withStats bool) {
		e, err := xq.Parse(src)
		if err != nil {
			return
		}
		q := core.Compile(e, core.Options{})
		estOpts := core.Options{DocStats: nominal, MaxTuples: 200_000}
		if withStats {
			estOpts.DocStats = collected
		}
		got, gerr := q.Eval(cat, estOpts)
		for _, mode := range []core.Mode{core.ModeMSJ, core.ModeNLJ} {
			opts := estOpts
			opts.ForceJoinMode = mode
			opts.DocStats = nil
			want, werr := q.Eval(cat, opts)
			if mode == core.ModeMSJ && fmt.Sprint(gerr) != fmt.Sprint(werr) {
				// One plan, so MaxTuples meters both runs alike.
				t.Fatalf("estimated err %v, %s err %v", gerr, mode, werr)
			}
			if werr != nil || gerr != nil {
				// The nested loop embeds tuples the merge join never builds,
				// so a budget error may hit the DI-NLJ side only; there is
				// nothing to compare then.
				continue
			}
			IdenticalRelations(t, "estimated-vs-"+mode.String(), got, want)
		}
	})
}

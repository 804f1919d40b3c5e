package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dixq/internal/exec"
	"dixq/internal/interval"
	"dixq/internal/xmark"
	"dixq/internal/xmltree"
	"dixq/internal/xq"
)

// forceParallelProbe drops the probe and sort thresholds so small test
// corpora exercise the partitioned probe and the exchange merge, and
// raises the worker budget so the budget clamp (exec.Effective) does not
// collapse the partitioning on single-core machines; everything restores
// on cleanup.
func forceParallelProbe(t *testing.T) {
	t.Helper()
	oldProbe, oldSort := ParallelProbeThreshold, interval.ParallelSortThreshold
	ParallelProbeThreshold, interval.ParallelSortThreshold = 1, 8
	oldLimit := exec.SetLimit(8)
	t.Cleanup(func() {
		ParallelProbeThreshold, interval.ParallelSortThreshold = oldProbe, oldSort
		exec.SetLimit(oldLimit)
	})
}

// TestProbeMergeUnit pins the probe partitioning at the unit level
// against the serial loop, including empty partitions (more partitions
// than outer elements), single-element inputs, empty sides and equal
// runs crossing every boundary.
func TestProbeMergeUnit(t *testing.T) {
	forceParallelProbe(t)
	rng := rand.New(rand.NewSource(20030609))
	check := func(outerKeys, innerKeys []int) {
		t.Helper()
		cmp := joinOrder{full: func(o, i int) int { return outerKeys[o] - innerKeys[i] }}
		outerOrder := interval.SortPerm(len(outerKeys), 1, func(a, b int) int { return outerKeys[a] - outerKeys[b] })
		innerOrder := interval.SortPerm(len(innerKeys), 1, func(a, b int) int { return innerKeys[a] - innerKeys[b] })
		want := probeRange(outerOrder, innerOrder, cmp)
		sortPairs := func(ps []envPair) {
			slices.SortFunc(ps, func(a, b envPair) int {
				if a.outer != b.outer {
					return a.outer - b.outer
				}
				return a.inner - b.inner
			})
		}
		sortPairs(want)
		for _, par := range []int{2, 3, 4, 7, 16} {
			got, _, parts := probeMerge(outerOrder, innerOrder, par, cmp)
			sortPairs(got)
			if !slices.Equal(got, want) {
				t.Fatalf("parallelism %d: got %v, want %v", par, got, want)
			}
			wantParts := exec.Effective(par)
			if len(outerOrder) < ParallelProbeThreshold {
				wantParts = 1 // empty outer takes the serial path
			}
			if parts != wantParts {
				t.Fatalf("parallelism %d: partitions = %d, want %d", par, parts, wantParts)
			}
		}
	}
	check([]int{1}, []int{1})             // single elements, 16 partitions over 1 outer
	check([]int{1}, []int{2})             // no match
	check([]int{1, 2, 3}, nil)            // empty inner
	check(nil, []int{1, 2, 3})            // empty outer: probeMerge must not panic
	check([]int{5, 5, 5, 5}, []int{5, 5}) // one giant equal run split across all boundaries
	for trial := 0; trial < 40; trial++ {
		no, ni := 1+rng.Intn(50), 1+rng.Intn(50)
		outer := make([]int, no)
		inner := make([]int, ni)
		for i := range outer {
			outer[i] = rng.Intn(8) // heavy duplicates, boundaries land inside runs
		}
		for i := range inner {
			inner[i] = rng.Intn(8)
		}
		check(outer, inner)
	}
}

// TestParallelProbeDigitIdentical forces the partitioned probe on the
// join differential corpus and the paper queries: results must be
// digit-identical to the serial probe at every parallelism.
func TestParallelProbeDigitIdentical(t *testing.T) {
	forceParallelProbe(t)
	rng := rand.New(rand.NewSource(41))
	doc := joinDocs(rng, 40) // n/2+1 key values over 40 records: long equal runs
	cat := EncodeCatalog(map[string]xmltree.Forest{"d": doc})
	queries := []string{
		`for $x in document("d")/db/as/rec
		 return for $y in document("d")/db/bs/rec
		 where $x/k = $y/k return <m>{$x/p/text()}{$y/p/text()}</m>`,
		xmark.Q8, xmark.Q9,
	}
	xmarkCat, _ := generatedCatalog(0.002, 5)
	for qi, query := range queries {
		c := cat
		if qi > 0 {
			c = xmarkCat
		}
		q := Compile(xq.MustParse(query), Options{})
		serial, err := q.Eval(c, Options{ForceJoinMode: ModeMSJ, Parallelism: 1})
		if err != nil {
			t.Fatalf("query %d serial: %v", qi, err)
		}
		for _, par := range []int{2, 3, 4, 8} {
			got, err := q.Eval(c, Options{ForceJoinMode: ModeMSJ, Parallelism: par})
			if err != nil {
				t.Fatalf("query %d parallelism %d: %v", qi, par, err)
			}
			if len(got.Tuples) != len(serial.Tuples) {
				t.Fatalf("query %d parallelism %d: tuple counts differ: %d vs %d",
					qi, par, len(got.Tuples), len(serial.Tuples))
			}
			for i := range got.Tuples {
				a, b := got.Tuples[i], serial.Tuples[i]
				if a.S != b.S || !a.L.Equal(b.L) || !a.R.Equal(b.R) {
					t.Fatalf("query %d parallelism %d: tuple %d differs: %s vs %s", qi, par, i, a, b)
				}
			}
		}
	}
}

// TestParallelProbeSpillMidJoin forces both side sorts to spill runs
// (a 1-byte budget spills everything) and the probe through
// the partitioned path in the same join; the result must stay
// digit-identical to the fully serial in-memory run.
func TestParallelProbeSpillMidJoin(t *testing.T) {
	forceParallelProbe(t)
	cat, _ := generatedCatalog(0.002, 5)
	for _, query := range []string{xmark.Q8, xmark.Q9} {
		q := Compile(xq.MustParse(query), Options{})
		serial, err := q.Eval(cat, Options{ForceJoinMode: ModeMSJ, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		stats := &Stats{}
		got, err := q.Eval(cat, Options{
			ForceJoinMode: ModeMSJ, Parallelism: 4,
			MemBudget: 1, SpillDir: t.TempDir(), Stats: stats,
		})
		if err != nil {
			t.Fatal(err)
		}
		if stats.SpilledRuns == 0 {
			t.Fatal("1-byte budget did not spill: the test lost its subject")
		}
		if len(got.Tuples) != len(serial.Tuples) {
			t.Fatalf("tuple counts differ: %d vs %d", len(got.Tuples), len(serial.Tuples))
		}
		for i := range got.Tuples {
			a, b := got.Tuples[i], serial.Tuples[i]
			if a.S != b.S || !a.L.Equal(b.L) || !a.R.Equal(b.R) {
				t.Fatalf("tuple %d differs: %s vs %s", i, a, b)
			}
		}
	}
}

// TestThetaProbeBoundaries pins the < probe at the unit level against a
// brute-force nested loop: every outer matches exactly the inners of its
// own prefix run whose key sorts strictly below (theta -1) or strictly
// above (theta +1) its own — ties excluded on both sides of every
// boundary — serially and under every partitioning, including empty
// sides, prefix runs absent from one side and runs of equal keys.
func TestThetaProbeBoundaries(t *testing.T) {
	forceParallelProbe(t)
	rng := rand.New(rand.NewSource(1117))
	type unit struct{ prefix, key int }
	order := func(us []unit) []int {
		return interval.SortPerm(len(us), 1, func(a, b int) int {
			if us[a].prefix != us[b].prefix {
				return us[a].prefix - us[b].prefix
			}
			return us[a].key - us[b].key
		})
	}
	check := func(outer, inner []unit) {
		t.Helper()
		for _, theta := range []int{-1, 1} {
			jo := joinOrder{theta: theta,
				full: func(o, i int) int {
					if c := outer[o].prefix - inner[i].prefix; c != 0 {
						return c
					}
					return outer[o].key - inner[i].key
				},
				prefix: func(o, i int) int { return outer[o].prefix - inner[i].prefix },
			}
			var want []envPair
			for o := range outer {
				for i := range inner {
					if outer[o].prefix == inner[i].prefix && theta*(inner[i].key-outer[o].key) > 0 {
						want = append(want, envPair{outer: o, inner: i})
					}
				}
			}
			outerOrder, innerOrder := order(outer), order(inner)
			sortPairs := func(ps []envPair) []envPair {
				slices.SortFunc(ps, func(a, b envPair) int {
					if a.outer != b.outer {
						return a.outer - b.outer
					}
					return a.inner - b.inner
				})
				return ps
			}
			if got := sortPairs(probeRange(outerOrder, innerOrder, jo)); !slices.Equal(got, want) {
				t.Fatalf("theta %d serial: got %v, want %v (outer %v, inner %v)", theta, got, want, outer, inner)
			}
			for _, par := range []int{2, 3, 7} {
				got, _, _ := probeMerge(outerOrder, innerOrder, par, jo)
				if got = sortPairs(got); !slices.Equal(got, want) {
					t.Fatalf("theta %d parallelism %d: got %v, want %v", theta, par, got, want)
				}
			}
		}
	}
	check(nil, []unit{{0, 1}})
	check([]unit{{0, 1}}, nil)
	check([]unit{{0, 5}, {0, 5}}, []unit{{0, 5}, {0, 5}, {0, 5}}) // all ties: nothing matches
	check([]unit{{0, 1}, {2, 1}}, []unit{{1, 0}, {1, 2}})         // no shared prefix run
	for trial := 0; trial < 60; trial++ {
		random := func() []unit {
			us := make([]unit, rng.Intn(30))
			for i := range us {
				us[i] = unit{prefix: rng.Intn(3), key: rng.Intn(5)}
			}
			return us
		}
		check(random(), random())
	}
}

// TestThetaProbePartitionedIdentical forces the partitioned probe and
// the exchange sort on value < joins — Q11 and Q12, and a theta join
// below a loop, whose matches must stay inside each person's prefix run
// — and requires results digit-identical to the serial probe, in memory
// and with both side sorts spilled.
func TestThetaProbePartitionedIdentical(t *testing.T) {
	forceParallelProbe(t)
	cat, _ := generatedCatalog(0.002, 5)
	underPerson := `for $p in document("auction.xml")/site/people/person
	 return for $a in $p/* return for $b in $p/*/text()
	 where $a/text() < $b return <m>{$b}</m>`
	for _, query := range []string{xmark.Q11, xmark.Q12, underPerson} {
		q := Compile(xq.MustParse(query), Options{})
		serialStats := &Stats{}
		serial, err := q.Eval(cat, Options{ForceJoinMode: ModeMSJ, Parallelism: 1, Stats: serialStats})
		if err != nil {
			t.Fatal(err)
		}
		if serialStats.MergeJoins == 0 || len(serial.Tuples) == 0 {
			t.Fatalf("no merge join or an empty answer: the test lost its subject\n%s", query)
		}
		for _, opts := range []Options{
			{ForceJoinMode: ModeMSJ, Parallelism: 3},
			{ForceJoinMode: ModeMSJ, Parallelism: 4, MemBudget: 1, SpillDir: t.TempDir()},
		} {
			got, err := q.Eval(cat, opts)
			if err != nil {
				t.Fatal(err)
			}
			identicalRelations(t, fmt.Sprintf("parallelism %d budget %d", opts.Parallelism, opts.MemBudget), got, serial)
		}
	}
}

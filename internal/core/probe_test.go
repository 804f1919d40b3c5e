package core

import (
	"math/rand"
	"slices"
	"testing"

	"dixq/internal/interval"
	"dixq/internal/xmark"
	"dixq/internal/xq"
)

// sortPairs orders join matches by (outer, inner), the document order the
// merge join emits them in.
func sortPairs(ps []envPair) []envPair {
	slices.SortFunc(ps, func(a, b envPair) int {
		if a.outer != b.outer {
			return a.outer - b.outer
		}
		return a.inner - b.inner
	})
	return ps
}

// TestProbeMergeUnit pins the = probe at the unit level against a
// brute-force nested loop, whole (probeRange) and in the two halves the
// join runs (probePair), including single-element inputs, empty sides and
// long equal runs that the cut between the halves lands inside.
func TestProbeMergeUnit(t *testing.T) {
	rng := rand.New(rand.NewSource(20030609))
	check := func(outerKeys, innerKeys []int) {
		t.Helper()
		cmp := joinOrder{full: func(o, i int) int { return outerKeys[o] - innerKeys[i] }}
		outerOrder := interval.SortPerm(len(outerKeys), func(a, b int) int { return outerKeys[a] - outerKeys[b] })
		innerOrder := interval.SortPerm(len(innerKeys), func(a, b int) int { return innerKeys[a] - innerKeys[b] })
		var want []envPair
		for o := range outerKeys {
			for i := range innerKeys {
				if outerKeys[o] == innerKeys[i] {
					want = append(want, envPair{outer: o, inner: i})
				}
			}
		}
		if got := sortPairs(probeRange(outerOrder, innerOrder, cmp)); !slices.Equal(got, want) {
			t.Fatalf("whole: got %v, want %v (outer %v, inner %v)", got, want, outerKeys, innerKeys)
		}
		if got := sortPairs(probePair(outerOrder, innerOrder, cmp)); !slices.Equal(got, want) {
			t.Fatalf("halves: got %v, want %v (outer %v, inner %v)", got, want, outerKeys, innerKeys)
		}
	}
	check([]int{1}, []int{1})             // single elements
	check([]int{1}, []int{2})             // no match
	check([]int{1, 2, 3}, nil)            // empty inner
	check(nil, []int{1, 2, 3})            // empty outer
	check([]int{5, 5, 5, 5}, []int{5, 5}) // one giant equal run, cut in half
	for trial := 0; trial < 40; trial++ {
		no, ni := 1+rng.Intn(50), 1+rng.Intn(50)
		outer := make([]int, no)
		inner := make([]int, ni)
		for i := range outer {
			outer[i] = rng.Intn(8) // heavy duplicates: long equal runs
		}
		for i := range inner {
			inner[i] = rng.Intn(8)
		}
		check(outer, inner)
	}
}

// TestParallelProbeSpillMidJoin forces both side sorts of every merge
// join to spill runs (a 1-byte budget spills everything) while they run
// at once on their two goroutines, ahead of the probe's two halves, on
// equi-joins (Q8, Q9) and value < joins (Q11, Q12, and a theta join below
// a loop, whose matches must stay inside each person's prefix run); the
// result must stay digit-identical to the in-memory run.
func TestParallelProbeSpillMidJoin(t *testing.T) {
	cat, _ := generatedCatalog(0.002, 5)
	underPerson := `for $p in document("auction.xml")/site/people/person
	 return for $a in $p/* return for $b in $p/*/text()
	 where $a/text() < $b return <m>{$b}</m>`
	for _, query := range []string{xmark.Q8, xmark.Q9, xmark.Q11, xmark.Q12, underPerson} {
		q := Compile(xq.MustParse(query), Options{})
		memStats := &Stats{}
		inMemory, err := q.Eval(cat, Options{ForceJoinMode: ModeMSJ, Stats: memStats})
		if err != nil {
			t.Fatal(err)
		}
		if memStats.MergeJoins == 0 || len(inMemory.Tuples) == 0 {
			t.Fatalf("no merge join or an empty answer: the test lost its subject\n%s", query)
		}
		stats := &Stats{}
		got, err := q.Eval(cat, Options{
			ForceJoinMode: ModeMSJ, MemBudget: 1, SpillDir: t.TempDir(), Stats: stats,
		})
		if err != nil {
			t.Fatal(err)
		}
		if stats.SpilledRuns == 0 {
			t.Fatal("1-byte budget did not spill: the test lost its subject")
		}
		identicalRelations(t, "spilled", got, inMemory)
	}
}

// TestThetaProbeBoundaries pins the < probe at the unit level against a
// brute-force nested loop: every outer matches exactly the inners of its
// own prefix run whose key sorts strictly below (theta -1) or strictly
// above (theta +1) its own — ties excluded on both sides of every
// boundary — whole and in halves, including empty sides, prefix runs
// absent from one side and runs of equal keys.
func TestThetaProbeBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(1117))
	type unit struct{ prefix, key int }
	order := func(us []unit) []int {
		return interval.SortPerm(len(us), func(a, b int) int {
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
			if got := sortPairs(probeRange(outerOrder, innerOrder, jo)); !slices.Equal(got, want) {
				t.Fatalf("theta %d whole: got %v, want %v (outer %v, inner %v)", theta, got, want, outer, inner)
			}
			if got := sortPairs(probePair(outerOrder, innerOrder, jo)); !slices.Equal(got, want) {
				t.Fatalf("theta %d halves: got %v, want %v (outer %v, inner %v)", theta, got, want, outer, inner)
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

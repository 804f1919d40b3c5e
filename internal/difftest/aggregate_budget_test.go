package difftest

import (
	"fmt"
	"math/rand"
	"testing"

	"dixq/internal/core"
	"dixq/internal/interp"
	"dixq/internal/interval"
	"dixq/internal/xmltree"
	"dixq/internal/xq"
)

// TestAggregatesUnderOneByteBudget is the spill half of the aggregation
// property test: aggregate queries whose inputs pass through structural
// sorts are evaluated over random documents with a 1-byte memory budget —
// every sort spills runs of sorted positions — and must still
// match the interpreter's recomputation on the plain forest, including
// the empty-document case.
func TestAggregatesUnderOneByteBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(2003))
	dir := t.TempDir()
	queries := []string{
		`sum(sort(document("d")))`,
		`avg(distinct(document("d")))`,
		`min(sort(document("d")))`,
		`max(for $x in document("d") order by $x descending return $x)`,
		`sum(document("d")) + count(document("d")) * 2`,
		`for $x in document("d") order by $x return sum($x/text())`,
	}
	opts := core.Options{
		ForceJoinMode: core.ModeMSJ,
		MemBudget:     1,
		SpillDir:      dir,
	}
	for trial := 0; trial < 30; trial++ {
		forest := xmltree.RandomForest(rng, 8)
		for n := rng.Intn(6); n > 0; n-- {
			forest = append(forest, xmltree.NewText(fmt.Sprintf("%d.%d", rng.Intn(200)-100, rng.Intn(10))))
		}
		if trial%6 == 0 {
			forest = nil // the empty-sequence edge under a spilling budget
		}
		cat := core.EncodeCatalog(map[string]xmltree.Forest{"d": forest})
		icat := interp.Catalog{"d": forest}
		for _, src := range queries {
			e := xq.MustParse(src)
			want, err := interp.Eval(e, nil, icat)
			if err != nil {
				t.Fatalf("trial %d %s: interp: %v", trial, src, err)
			}
			rel, err := core.Compile(e, opts).Eval(cat, opts)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, src, err)
			}
			got, err := interval.Decode(rel)
			if err != nil {
				t.Fatalf("trial %d %s: decode: %v", trial, src, err)
			}
			if !got.Equal(want) {
				t.Fatalf("trial %d %s under 1-byte budget:\n got %s\nwant %s",
					trial, src, got.String(), want.String())
			}
		}
	}
}

package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"dixq/internal/interval"
	"dixq/internal/xfn"
	"dixq/internal/xmltree"
)

// unbudgeted drops the stats and error of an unbudgeted group reorder,
// which never spills and never fails.
func unbudgeted(rel *interval.Relation, _ SpillStats, _ error) *interval.Relation { return rel }

// randomOrdForest builds a forest of order-by wrapper trees, the shape the
// order-by desugaring feeds OrdBy: <#ord><#key><#k1>…</#k1>…</#key><#val>…
// </#val></#ord>. Key parts come from a small pool mixing numbers, strings
// and empty parts, and part counts vary, so equal keys (stability), the
// numeric-vs-string order and the shorter-first rule all occur; a few
// wrappers have no <#key> at all. The first wrapper always has a key part,
// so a non-empty forest always has key tuples to spill.
func randomOrdForest(rng *rand.Rand) xmltree.Forest {
	pool := []string{"1", "2", "10", "2.5", "a", "b", ""}
	var f xmltree.Forest
	for n := rng.Intn(8); len(f) < n; {
		k := rng.Intn(3)
		if len(f) == 0 {
			k++
		}
		var parts []*xmltree.Node
		for ; k > 0; k-- {
			part := xmltree.NewElement("#k1")
			if s := pool[rng.Intn(len(pool))]; s != "" {
				part.Children = xmltree.Forest{xmltree.NewText(s)}
			}
			parts = append(parts, part)
		}
		val := xmltree.NewElement("#val", xmltree.RandomForest(rng, 4)...)
		wrapper := xmltree.NewElement("#ord", xmltree.NewElement("#key", parts...), val)
		if len(f) > 0 && rng.Intn(6) == 0 {
			wrapper.Children = wrapper.Children[1:]
		}
		f = append(f, wrapper)
	}
	return f
}

// TestGroupReordersUnderBudget is the property test of the three group
// reorders over the one budgeted sort. On random forests, in one
// environment (depth 0) and in several (depth 1), SortTrees, Distinct and
// OrdBy must answer their xfn specification, and every budget × worker
// bound must be digit-identical to the unbudgeted serial run. A 1-byte
// budget pushes every non-empty group through the external sorter and
// must spill; a zero budget must spill nothing.
func TestGroupReordersUnderBudget(t *testing.T) {
	old := interval.ParallelSortThreshold
	interval.ParallelSortThreshold = 4
	defer func() { interval.ParallelSortThreshold = old }()
	dir := t.TempDir()

	type reorder func(rel *interval.Relation, depth, parallelism int, spill *SpillConfig) (*interval.Relation, SpillStats, error)
	ordBy := func(dir string) reorder {
		return func(rel *interval.Relation, depth, parallelism int, spill *SpillConfig) (*interval.Relation, SpillStats, error) {
			return OrdBy(rel, depth, dir, parallelism, spill)
		}
	}
	treeForest := func(rng *rand.Rand) xmltree.Forest { return xmltree.RandomForest(rng, 14) }
	ops := []struct {
		name   string
		op     reorder
		spec   func(xmltree.Forest) xmltree.Forest
		forest func(*rand.Rand) xmltree.Forest
	}{
		{"SortTrees", SortTrees, xfn.Sort, treeForest},
		{"Distinct", Distinct, xfn.Distinct, treeForest},
		{"OrdBy/asc", ordBy("asc"), func(f xmltree.Forest) xmltree.Forest { return xfn.OrdBy("asc", f) }, randomOrdForest},
		{"OrdBy/desc", ordBy("desc"), func(f xmltree.Forest) xmltree.Forest { return xfn.OrdBy("desc", f) }, randomOrdForest},
	}

	rng := rand.New(rand.NewSource(20030611))
	for trial := 0; trial < 30; trial++ {
		for _, o := range ops {
			for _, depth := range []int{0, 1} {
				forests := []xmltree.Forest{o.forest(rng)}
				in := interval.Encode(forests[0])
				if depth == 1 {
					for n := rng.Intn(3); n >= 0; n-- {
						forests = append(forests, o.forest(rng))
					}
					_, in = encodeInEnvs(forests)
				}
				want := unbudgeted(o.op(in, depth, 1, nil))
				for i, forest := range forests {
					var got xmltree.Forest
					if depth == 0 {
						got, _ = interval.Decode(want)
					} else {
						got = decodeEnv(t, want, int64(i))
					}
					if spec := o.spec(forest); !got.Equal(spec) {
						t.Fatalf("%s depth %d trial %d env %d:\n in  %s\n got %s\nwant %s",
							o.name, depth, trial, i, forest, got, spec)
					}
				}

				for _, budget := range []int64{0, 1, 200, 4096} {
					for _, par := range []int{1, 4} {
						what := fmt.Sprintf("%s depth %d trial %d budget %d par %d", o.name, depth, trial, budget, par)
						got, stats, err := o.op(in, depth, par, &SpillConfig{MaxBytes: budget, Dir: dir})
						if err != nil {
							t.Fatalf("%s: %v", what, err)
						}
						sameRelation(t, what, got, want)
						switch {
						case budget == 0 && stats.Runs != 0:
							t.Fatalf("%s: unbounded sort spilled %d runs", what, stats.Runs)
						case budget == 1 && len(in.Tuples) > 0 && stats.Runs == 0:
							t.Fatalf("%s: 1-byte budget over %d tuples spilled nothing", what, len(in.Tuples))
						}
					}
				}
			}
		}
	}
}

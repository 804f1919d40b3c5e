package index_test

import (
	"math/rand"
	"testing"

	"dixq/internal/index"
	"dixq/internal/interval"
	"dixq/internal/stats"
	"dixq/internal/xmltree"
)

// TestResolveClassesCoverRows: the classes of a plain resolution are the
// instance set of its answer, so their statistics add up to exactly the
// rows it serves — the classes' subtree rows, or their instance counts
// after roots(). This is what lets the optimizer estimate a seek from the
// statistics of its classes alone.
func TestResolveClassesCoverRows(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	labels := []string{"<a>", "<b>", "<c>", "<item>", "@a", "@item"}
	resolved := 0
	for i := 0; i < 400; i++ {
		rel := interval.Encode(xmltree.RandomForest(rng, 60))
		ix, st := index.Build(rel), stats.Collect(rel)
		var steps []index.Step
		for n := 1 + rng.Intn(5); n > 0; n-- {
			switch rng.Intn(5) {
			case 0, 1:
				steps = append(steps, index.Step{Kind: index.StepSelect, Label: labels[rng.Intn(len(labels))]})
			case 2:
				steps = append(steps, index.Step{Kind: index.StepSelText})
			case 3:
				steps = append(steps, index.Step{Kind: index.StepChildren})
			default:
				steps = append(steps, index.Step{Kind: index.StepRoots})
			}
		}
		res := ix.Resolve(steps)
		if res.Pruned {
			continue
		}
		resolved++
		var rows int64
		for _, p := range res.Classes {
			ps, ok := st.Paths[p]
			if !ok {
				t.Fatalf("doc %d %v: class %q has no statistics", i, steps, p)
			}
			if res.Roots {
				rows += ps.Count
			} else {
				rows += ps.SubtreeRows
			}
		}
		if rows != res.Rows {
			t.Fatalf("doc %d %v: classes %v cover %d rows, the resolution serves %d", i, steps, res.Classes, rows, res.Rows)
		}
	}
	if resolved < 100 {
		t.Fatalf("only %d of 400 chains resolved to rows", resolved)
	}
}

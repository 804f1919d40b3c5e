package index_test

import (
	"math/rand"
	"testing"

	"dixq/internal/index"
	"dixq/internal/interval"
	"dixq/internal/xmltree"
)

// TestResolveClassesCoverRows: the classes of a plain resolution are the
// instance set of its answer, so their annotations add up to exactly the
// rows it serves — the classes' subtree rows, or their instance counts
// after roots(). This is what lets the estimator estimate a seek from the
// annotations of its class handles alone.
func TestResolveClassesCoverRows(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	labels := []string{"<a>", "<b>", "<c>", "<item>", "@a", "@item"}
	resolved := 0
	for i := 0; i < 400; i++ {
		rel := interval.Encode(xmltree.RandomForest(rng, 60))
		ix := index.Build(rel)
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
		for _, c := range res.Classes {
			if res.Roots {
				rows += c.Count()
			} else {
				rows += c.SubtreeRows()
			}
		}
		if rows != res.Rows {
			t.Fatalf("doc %d %v: classes %v cover %d rows, the resolution serves %d", i, steps, classPaths(res.Classes), rows, res.Rows)
		}
	}
	if resolved < 100 {
		t.Fatalf("only %d of 400 chains resolved to rows", resolved)
	}
}

// classPaths renders class handles as their paths. It keeps nil apart
// from an empty set: a nil set means "unknown classes" to the estimator,
// an empty one means "no rows".
func classPaths(classes []*index.Class) []string {
	if classes == nil {
		return nil
	}
	out := make([]string, 0, len(classes))
	for _, c := range classes {
		out = append(out, c.Path())
	}
	return out
}

// classesByPath maps the path of every class of ix to its handle.
func classesByPath(ix *index.DocIndex) map[string]*index.Class {
	out := map[string]*index.Class{}
	var walk func([]*index.Class)
	walk = func(classes []*index.Class) {
		for _, c := range classes {
			out[c.Path()] = c
			walk(c.Children())
		}
	}
	walk(ix.TopClasses())
	return out
}

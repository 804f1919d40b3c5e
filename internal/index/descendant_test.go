package index_test

import (
	"math/rand"
	"reflect"
	"testing"

	"dixq/internal/engine"
	"dixq/internal/index"
	"dixq/internal/interval"
	"dixq/internal/update"
	"dixq/internal/xmltree"
)

// nestedDoc has nested same-label anchors: rows are 0:<a> 1:<a> 2:<b>
// 3:<c> 4:<a>, with row 1 and row 4 inside row 0.
const nestedDoc = `<a><a><b/></a><c><a/></c></a>`

func TestResolveDescendant(t *testing.T) {
	f, err := xmltree.Parse(nestedDoc)
	if err != nil {
		t.Fatal(err)
	}
	ix := index.Build(interval.Encode(f))
	sel := func(l string) index.Step { return index.Step{Kind: index.StepSelect, Label: l} }
	desc, kids := index.Step{Kind: index.StepDescendant}, index.Step{Kind: index.StepChildren}
	cases := []struct {
		name  string
		steps []index.Step
		want  index.Resolution
	}{
		// Every <a>, the root included: each its own subtree, nested ones
		// overlapping, numbered by row offset in the whole document.
		{"doc-level", []index.Step{desc, sel("<a>")},
			index.Resolution{Ranges: [][2]int32{{0, 5}, {1, 3}, {4, 5}}, Pos: []int64{0, 1, 4}, Rows: 8, Consumed: 2}},
		// Below the root's children: the forest is rows 1-4, so row 4 sits
		// at offset 3.
		{"under-children", []index.Step{sel("<a>"), kids, desc, sel("<a>")},
			index.Resolution{Ranges: [][2]int32{{1, 3}, {4, 5}}, Pos: []int64{0, 3}, Rows: 3, Consumed: 4}},
		{"descendant-or-self", []index.Step{sel("<a>"), kids, sel("<c>"), desc, sel("<c>")},
			index.Resolution{Ranges: [][2]int32{{3, 5}}, Pos: []int64{0}, Rows: 2, Consumed: 5}},
		// Not absorbed: after roots, last, before a non-select step, before
		// a text-shaped select.
		{"after-roots", []index.Step{sel("<a>"), {Kind: index.StepRoots}, desc, sel("<a>")},
			index.Resolution{Ranges: [][2]int32{{0, 1}}, Rows: 1, Consumed: 2, Classes: []string{"/<a>"}, Roots: true}},
		{"trailing", []index.Step{sel("<a>"), kids, desc},
			index.Resolution{Ranges: [][2]int32{{1, 5}}, Rows: 4, Consumed: 2, Classes: []string{"/<a>/<a>", "/<a>/<c>"}}},
		{"before-children", []index.Step{desc, kids},
			index.Resolution{Ranges: [][2]int32{{0, 5}}, Rows: 5, Classes: []string{"/<a>"}}},
		{"text-shaped-select", []index.Step{desc, sel("x")},
			index.Resolution{Ranges: [][2]int32{{0, 5}}, Rows: 5, Classes: []string{"/<a>"}}},
		{"absent", []index.Step{desc, sel("<nosuch>")}, index.Resolution{Consumed: 2, Pruned: true}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := ix.Resolve(c.steps); !reflect.DeepEqual(got, c.want) {
				t.Fatalf("Resolve = %+v, want %+v", got, c.want)
			}
		})
	}
}

// TestDescendantSeekMatchesSubtreesDFS is the descendant seek's
// correctness property: over random forests, random absorbable input
// chains and random labels, serving the resolved anchors through
// engine.SubtreesAt is tuple for tuple — key digit counts included — the
// select over subtrees-dfs the seek replaces. Every third document first
// takes a front InsertBefore and is re-indexed, so its keys carry several
// digits.
func TestDescendantSeekMatchesSubtreesDFS(t *testing.T) {
	rng := rand.New(rand.NewSource(2003))
	labels := []string{"<a>", "<b>", "<c>", "<item>", "<name>", "@a", "@item"}
	pick := func() string { return labels[rng.Intn(len(labels))] }
	multiDigit := 0
	for i := 0; i < 400; i++ {
		rel := interval.Encode(xmltree.RandomForest(rng, 60))
		if i%3 == 0 {
			var err error
			if rel, _, err = update.InsertBefore(rel, index.Build(rel).End, 0, xmltree.RandomForest(rng, 12)); err != nil {
				t.Fatal(err)
			}
			if rel.MaxKeyLen() > 1 {
				multiDigit++
			}
		}
		ix := index.Build(rel)
		// The input chain, resolved symbolically and run by the engine.
		var steps []index.Step
		input := rel
		for n := rng.Intn(4); n > 0; n-- {
			if rng.Intn(2) == 0 {
				l := pick()
				steps = append(steps, index.Step{Kind: index.StepSelect, Label: l})
				input = engine.SelectLabel(l, input)
			} else {
				steps = append(steps, index.Step{Kind: index.StepChildren})
				input = engine.Children(input)
			}
		}
		var want *interval.Relation
		if rng.Intn(5) == 0 {
			steps = append(steps, index.Step{Kind: index.StepDescendant}, index.Step{Kind: index.StepSelText})
			want = engine.SelectText(engine.SubtreesDFS(input, 0))
		} else {
			l := pick()
			steps = append(steps, index.Step{Kind: index.StepDescendant}, index.Step{Kind: index.StepSelect, Label: l})
			want = engine.SelectLabel(l, engine.SubtreesDFS(input, 0))
		}
		res := ix.Resolve(steps)
		got := &interval.Relation{}
		if !res.Pruned {
			if res.Consumed != len(steps) || res.Pos == nil {
				t.Fatalf("doc %d %v: absorbed %d steps, pos %v", i, steps, res.Consumed, res.Pos)
			}
			got = engine.SubtreesAt(rel, res.Ranges, res.Pos)
			if res.Rows != int64(got.Len()) {
				t.Fatalf("doc %d %v: Rows %d, served %d", i, steps, res.Rows, got.Len())
			}
		}
		if len(got.Tuples) != len(want.Tuples) {
			t.Fatalf("doc %d %v: %d tuples, want %d", i, steps, len(got.Tuples), len(want.Tuples))
		}
		for j, w := range want.Tuples {
			g := got.Tuples[j]
			if g.S != w.S || !g.L.Equal(w.L) || !g.R.Equal(w.R) || len(g.L) != len(w.L) || len(g.R) != len(w.R) {
				t.Fatalf("doc %d %v: tuple %d is %s, want %s", i, steps, j, g, w)
			}
		}
	}
	if multiDigit == 0 {
		t.Fatal("no document carried multi-digit keys")
	}
}

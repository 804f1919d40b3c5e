package index_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"dixq/internal/index"
	"dixq/internal/interval"
	"dixq/internal/update"
	"dixq/internal/xmark"
	"dixq/internal/xmltree"
)

// updateOps are the five update operators, in one signature.
var updateOps = []struct {
	name string
	f    func(*interval.Relation, []int32, int, xmltree.Forest) (*interval.Relation, interval.Edit, error)
}{
	{"delete", func(rel *interval.Relation, end []int32, row int, _ xmltree.Forest) (*interval.Relation, interval.Edit, error) {
		return update.DeleteSubtree(rel, end, row)
	}},
	{"insert-after", update.InsertAfter},
	{"insert-before", update.InsertBefore},
	{"append-child", update.AppendChild},
	{"prepend-child", update.PrependChild},
}

const (
	opDelete = iota
	opInsertAfter
	opInsertBefore
	opAppendChild
	opPrependChild
)

// sameIndex fails unless got describes exactly what want does: the same
// relation, subtree ends, class paths, rows and annotations of every
// class, and postings. The order of a class's children is not compared.
func sameIndex(t *testing.T, what string, got, want *index.DocIndex) {
	t.Helper()
	if got.Rel != want.Rel {
		t.Fatalf("%s: index describes another relation", what)
	}
	if i := firstDiff(got.End, want.End); i >= 0 {
		t.Fatalf("%s: End differs first at row %d of %d/%d", what, i, len(got.End), len(want.End))
	}
	paths := want.Paths()
	if gp := got.Paths(); !slices.Equal(gp, paths) {
		t.Fatalf("%s: %d class paths, want %d", what, len(gp), len(paths))
	}
	gc, wc := classesByPath(got), classesByPath(want)
	for _, p := range paths {
		g, w := gc[p], wc[p]
		if !slices.Equal(g.Rows(), w.Rows()) {
			t.Fatalf("%s: rows of class %s differ", what, p)
		}
		if g.SubtreeRows() != w.SubtreeRows() || g.DistinctText() != w.DistinctText() {
			t.Fatalf("%s: class %s annotated %d subtree rows and %d distinct texts, want %d and %d",
				what, p, g.SubtreeRows(), g.DistinctText(), w.SubtreeRows(), w.DistinctText())
		}
	}
	if gp, wp := index.Postings(got), index.Postings(want); !reflect.DeepEqual(gp, wp) {
		t.Fatalf("%s: postings of %d labels, want %d", what, len(gp), len(wp))
	}
}

func firstDiff(a, b []int32) int {
	for i := range max(len(a), len(b)) {
		if i >= len(a) || i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return -1
}

// TestSpliceMatchesRebuild is the splice's property test. Random update
// sequences on an XMark sf 0.02 document run through all five update
// operators, carrying the index with index.Splice. After every step the
// spliced index must equal index.Build over the new relation: End, every
// class's rows and its three annotations (instance count, subtree rows,
// distinct text values), and the postings. Three edits a random
// walk may miss run first: an insert as the root's first child, a
// front-of-document insert (negative key digits, every row shifts), and a
// delete that empties dataguide classes.
func TestSpliceMatchesRebuild(t *testing.T) {
	rel := interval.Encode(xmark.Generate(xmark.Config{ScaleFactor: 0.02, Seed: 29}))
	ix := index.Build(rel)
	rng := rand.New(rand.NewSource(29))
	step := func(what string, op, row int, frag xmltree.Forest) {
		t.Helper()
		next, e, err := updateOps[op].f(ix.Rel, ix.End, row, frag)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		ix = index.Splice(ix, next, e)
		what = fmt.Sprintf("%s (%s row %d, edit %+v)", what, updateOps[op].name, row, e)
		sameIndex(t, what, ix, index.Build(next))
	}
	// fragment is a random forest or, half the time, a copy of a small
	// subtree of the document, whose classes and labels already exist.
	fragment := func() xmltree.Forest {
		if rng.Intn(2) == 0 {
			return xmltree.RandomForest(rng, 8)
		}
		for {
			r := rng.Intn(len(ix.End))
			if int(ix.End[r])-r <= 40 {
				return interval.MustDecode(&interval.Relation{Tuples: ix.Rel.Tuples[r:ix.End[r]]})
			}
		}
	}

	fresh := xmltree.Forest{xmltree.NewElement("fresh", xmltree.NewText("v"))}
	step("root's first child", opPrependChild, 0, fresh)
	step("front of the document", opInsertBefore, 0, fresh)
	if !update.NeedsRebuild(ix.Rel) {
		t.Fatal("the front insert made no negative digit")
	}
	// The shallowest single-instance path with classes below it: deleting
	// its instance empties all of them.
	names, classes := ix.Paths(), classesByPath(ix)
	sort.SliceStable(names, func(i, j int) bool { return len(names[i]) < len(names[j]) })
	var victim string
	for _, p := range names {
		if c := classes[p]; c.Count() == 1 && c.SubtreeRows() > 1 && p != names[0] {
			if row := int(c.Rows()[0]); row > 0 && int(ix.End[row])-row < len(ix.End)/4 {
				victim = p
				break
			}
		}
	}
	if victim == "" {
		t.Fatal("no single-instance path to delete")
	}
	step("delete emptying "+victim, opDelete, int(classes[victim].Rows()[0]), nil)
	if classesByPath(ix)[victim] != nil {
		t.Fatalf("class %s survived the delete of its only instance", victim)
	}

	for i := 0; i < 100; i++ {
		op, row := rng.Intn(len(updateOps)), rng.Intn(len(ix.End))
		// Keep the document from collapsing: delete small subtrees only.
		for op == opDelete && int(ix.End[row])-row > len(ix.End)/50 {
			row = rng.Intn(len(ix.End))
		}
		var frag xmltree.Forest
		if op != opDelete {
			frag = fragment()
		}
		step(fmt.Sprintf("step %d", i), op, row, frag)
	}
}

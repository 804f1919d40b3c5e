package difftest

import (
	"reflect"
	"sort"
	"testing"

	"dixq/internal/core"
	"dixq/internal/index"
	"dixq/internal/interp"
	"dixq/internal/interval"
	"dixq/internal/update"
	"dixq/internal/xmltree"
)

// TestSplicedIndexAgreesOnCorpus runs the corpus over an updated XMark
// document three ways: with the index the updates spliced (what the
// catalog publishes), with the index rebuilt from the updated relation,
// and with neither; the indexed runs estimate from their index's
// annotations. The updates shift every row (a front-of-document insert
// with negative digits, a prepend under the root), add instances to
// classes the corpus seeks (a person, a closed auction) and remove one.
// After every update the annotations of the spliced index's classes must
// equal those of an independent stack pass over the updated relation
// (pathStats). All three DI-MSJ runs must be
// digit-identical, and the unindexed run must agree with the interpreter
// over the decoded document.
func TestSplicedIndexAgreesOnCorpus(t *testing.T) {
	t.Parallel()
	cat, icat := Docs(t, 0.002, 17)
	ix := index.Build(cat["auction.xml"])
	// rows returns the instance rows of the class at path.
	rows := func(path string) []int32 {
		var out []int32
		var walk func([]*index.Class)
		walk = func(classes []*index.Class) {
			for _, c := range classes {
				if c.Path() == path {
					out = c.Rows()
				}
				walk(c.Children())
			}
		}
		walk(ix.TopClasses())
		if len(out) == 0 {
			t.Fatalf("no instance of %s", path)
		}
		return out
	}
	first := func(path string) int { return int(rows(path)[0]) }
	copyOf := func(path string) xmltree.Forest {
		rows := rows(path)
		r := rows[len(rows)-1]
		return interval.MustDecode(&interval.Relation{Tuples: ix.Rel.Tuples[r:ix.End[r]]})
	}
	parse := func(xml string) xmltree.Forest {
		f, err := xmltree.Parse(xml)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	apply := func(what string, next *interval.Relation, e interval.Edit, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		ix = index.Splice(ix, next, e)
		if got, want := classStats(ix), pathStats(next); !reflect.DeepEqual(got, want) {
			paths := make([]string, 0, len(want))
			for p := range want {
				paths = append(paths, p)
			}
			sort.Strings(paths)
			for _, p := range paths {
				if got[p] != want[p] {
					t.Fatalf("%s: spliced annotations of %s %+v, want %+v", what, p, got[p], want[p])
				}
			}
			t.Fatalf("%s: spliced annotations of %d paths, want %d", what, len(got), len(want))
		}
	}
	next, e, err := update.AppendChild(ix.Rel, ix.End, first("/<site>/<people>"), copyOf("/<site>/<people>/<person>"))
	apply("append a person", next, e, err)
	next, e, err = update.DeleteSubtree(ix.Rel, ix.End, first("/<site>/<people>/<person>"))
	apply("delete the first person", next, e, err)
	next, e, err = update.InsertBefore(ix.Rel, ix.End, first("/<site>/<closed_auctions>/<closed_auction>"), copyOf("/<site>/<closed_auctions>/<closed_auction>"))
	apply("insert a closed auction", next, e, err)
	next, e, err = update.PrependChild(ix.Rel, ix.End, 0, parse(`<extra><item><name>x</name></item></extra>`))
	apply("prepend under the root", next, e, err)
	next, e, err = update.InsertBefore(ix.Rel, ix.End, 0, parse(`<front/>`))
	apply("insert before the root", next, e, err)
	if !update.NeedsRebuild(ix.Rel) || ix.Rel.MaxKeyLen() < 2 {
		t.Fatal("the updates left the keys one-digit and non-negative")
	}

	updated := core.Catalog{"d": cat["d"], "auction.xml": ix.Rel}
	icat = interp.Catalog{"d": icat["d"], "auction.xml": interval.MustDecode(ix.Rel)}
	spliced := &index.Set{Docs: map[string]*index.DocIndex{"d": index.Build(cat["d"]), "auction.xml": ix}}
	rebuilt := index.BuildSet(updated)
	for _, c := range Corpus() {
		t.Run(c.Name, func(t *testing.T) {
			oracle, oerr := interp.Run(c.Query, icat)
			none := core.Options{}
			want, werr := RunCase(t, c, updated, none)
			if (oerr != nil) != (werr != nil) {
				t.Fatalf("interpreter err %v, unindexed err %v", oerr, werr)
			}
			if werr != nil {
				return
			}
			if got := interval.MustDecode(want); !got.Equal(oracle) {
				t.Fatalf("unindexed run disagrees with the interpreter: %d trees, want %d", len(got), len(oracle))
			}
			for _, v := range []struct {
				name string
				ix   *index.Set
			}{{"spliced", spliced}, {"rebuilt", rebuilt}} {
				opts := none
				opts.Indexes, opts.DocStats = v.ix, v.ix
				got, err := RunCase(t, c, updated, opts)
				if err != nil {
					t.Fatalf("%s: %v", v.name, err)
				}
				IdenticalRelations(t, "DI-MSJ "+v.name, got, want)
			}
		})
	}
}

// annotation is one dataguide class's annotations: instance count,
// subtree rows and distinct text values.
type annotation struct{ count, subtreeRows, distinct int64 }

// classStats renders every class of ix with its annotations, keyed by its
// class path.
func classStats(ix *index.DocIndex) map[string]annotation {
	out := map[string]annotation{}
	var walk func([]*index.Class)
	walk = func(classes []*index.Class) {
		for _, c := range classes {
			out[c.Path()] = annotation{c.Count(), c.SubtreeRows(), c.DistinctText()}
			walk(c.Children())
		}
	}
	walk(ix.TopClasses())
	return out
}

// pathStats derives a relation's class annotations in a stack pass of its
// own, rendering every row's dataguide path as a string: the oracle for
// the index's annotations.
func pathStats(rel *interval.Relation) map[string]annotation {
	s := map[string]annotation{}
	type frame struct {
		row  int
		path string
	}
	distinct := map[string]map[string]bool{}
	var stack []frame
	pop := func(end int) {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		ps := s[f.path]
		ps.count++
		ps.subtreeRows += int64(end - f.row)
		s[f.path] = ps
	}
	for i, tu := range rel.Tuples {
		for len(stack) > 0 && interval.Compare(rel.Tuples[stack[len(stack)-1].row].R, tu.L) < 0 {
			pop(i)
		}
		path := ""
		if len(stack) > 0 {
			path = stack[len(stack)-1].path
		}
		if xmltree.LabelKind(tu.S) == xmltree.Text {
			path += "/#text"
			if distinct[path] == nil {
				distinct[path] = map[string]bool{}
			}
			distinct[path][tu.S] = true
		} else {
			path += "/" + tu.S
		}
		stack = append(stack, frame{i, path})
	}
	for len(stack) > 0 {
		pop(rel.Len())
	}
	for path, values := range distinct {
		ps := s[path]
		ps.distinct = int64(len(values))
		s[path] = ps
	}
	return s
}

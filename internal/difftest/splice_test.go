package difftest

import (
	"testing"

	"dixq/internal/core"
	"dixq/internal/index"
	"dixq/internal/interp"
	"dixq/internal/interval"
	"dixq/internal/stats"
	"dixq/internal/update"
	"dixq/internal/xmltree"
)

// TestSplicedIndexAgreesOnCorpus runs the corpus over an updated XMark
// document three ways: with the index and statistics the updates spliced
// (what the catalog publishes), with both rebuilt from the updated
// relation, and with neither. The updates shift every row (a
// front-of-document insert with negative digits, a prepend under the
// root), add instances to classes the corpus seeks (a person, a closed
// auction) and remove one. All three DI-MSJ runs must be digit-identical,
// and the unindexed run must agree with the interpreter over the decoded
// document.
func TestSplicedIndexAgreesOnCorpus(t *testing.T) {
	t.Parallel()
	cat, icat := Docs(t, 0.002, 17)
	ix, st := index.Build(cat["auction.xml"]), stats.Collect(cat["auction.xml"])
	first := func(path string) int {
		rows := ix.PathRows(path)
		if len(rows) == 0 {
			t.Fatalf("no instance of %s", path)
		}
		return int(rows[0])
	}
	copyOf := func(path string) xmltree.Forest {
		rows := ix.PathRows(path)
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
		p := index.Splice(ix, next, e)
		ix, st = p.After, stats.Splice(st, p)
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
	splicedStats := &stats.Set{Docs: map[string]*stats.DocStats{"d": stats.Collect(cat["d"]), "auction.xml": st}}
	rebuilt, rebuiltStats := index.BuildSet(updated), stats.CollectSet(updated)
	for _, c := range Corpus() {
		t.Run(c.Name, func(t *testing.T) {
			oracle, oerr := interp.Run(c.Query, icat)
			none := core.Options{Parallelism: 1}
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
				st   *stats.Set
			}{{"spliced", spliced, splicedStats}, {"rebuilt", rebuilt, rebuiltStats}} {
				opts := none
				opts.Indexes, opts.DocStats = v.ix, v.st
				got, err := RunCase(t, c, updated, opts)
				if err != nil {
					t.Fatalf("%s: %v", v.name, err)
				}
				IdenticalRelations(t, "DI-MSJ "+v.name, got, want)
			}
		})
	}
}

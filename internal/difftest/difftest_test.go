package difftest

import (
	"strings"
	"testing"

	"dixq/internal/core"
	"dixq/internal/index"
	"dixq/internal/interp"
	"dixq/internal/interval"
	"dixq/internal/plan"
	"dixq/internal/stats"
	"dixq/internal/xq"
)

// TestEnginesAgreeOnCorpus is the differential matrix: every corpus case
// through the interpreter (the semantic oracle), the baseline DI
// evaluation, and the variant matrix. The interpreter comparison is
// forest equality; the DI comparisons are digit-identical relations. Every
// result is also compared by the bytes interval.WriteXML writes — the
// bytes a query answer is served as — against the interpreter forest's
// serialization.
func TestEnginesAgreeOnCorpus(t *testing.T) {
	t.Parallel()
	cat, icat := Docs(t, 0.002, 17)
	variants := Variants(t.TempDir(), index.BuildSet(cat), stats.CollectSet(cat))
	for _, c := range Corpus() {
		t.Run(c.Name, func(t *testing.T) {
			oracle, oerr := interp.Run(c.Query, icat)
			want, werr := RunCase(t, c, cat, Baseline())
			if (oerr != nil) != (werr != nil) {
				t.Fatalf("interpreter err %v, DI baseline err %v", oerr, werr)
			}
			if werr == nil {
				got, err := interval.Decode(want)
				if err != nil {
					t.Fatalf("baseline result does not decode: %v", err)
				}
				if !got.Equal(oracle) {
					t.Fatalf("DI baseline disagrees with the interpreter:\n got %d trees\nwant %d trees",
						len(got), len(oracle))
				}
			}
			wantXML := oracle.String()
			for _, v := range variants {
				got, gerr := RunCase(t, c, cat, v.Opts)
				if (werr != nil) != (gerr != nil) {
					t.Fatalf("%s: baseline err %v, variant err %v", v.Name, werr, gerr)
				}
				if werr != nil {
					continue
				}
				IdenticalRelations(t, v.Name, got, want)
				if gotXML := interval.XML(got); gotXML != wantXML {
					t.Fatalf("%s: written result differs from the interpreter's serialization:\n got %.200q\nwant %.200q",
						v.Name, gotXML, wantXML)
				}
			}
		})
	}
}

// TestLoopInvariantSeeksInsideLoops pins the depth >= 1 index-seek
// rewrite: path chains rooted at document scans inside loops resolve
// against the structural index and are served by embedding the resolved
// ranges into the loop environments. Queries are compiled with
// NoRewrites so the chains stay inside the loops (hoisting would lift
// them to depth 0 and dodge the code path entirely); each indexed run
// must be digit-identical to its scan-backed twin, and the plans must
// actually carry a seek and a descendant seek at Depth >= 1. The last
// query serves a seek under a depth-0 where clause that drops the only
// environment.
func TestLoopInvariantSeeksInsideLoops(t *testing.T) {
	cat, _ := Docs(t, 0.002, 17)
	set := index.BuildSet(cat)
	queries := []string{
		// Chain in the loop body.
		`for $x in document("d")/a/b return document("d")/a/b/text()`,
		// Chain in an inner loop's domain and a join against it.
		`for $x in document("d")/a/b
		 return for $y in document("d")/a/c/b
		 where $x = $y return <m>{$y}</m>`,
		// Chain under a where condition inside the loop.
		`for $x in document("d")/a/b
		 where not(empty(document("d")/a/c)) return $x`,
		// Absent path inside a loop: pruned at depth >= 1.
		`for $x in document("d")/a/b return document("d")/nope/zzz`,
		// XMark document, two loop levels deep.
		`for $p in document("auction.xml")/site/people/person
		 return for $q in document("auction.xml")/site/regions
		 return document("auction.xml")/site/people/person/name/text()`,
		// Descendant seeks in a loop body and in an inner loop's domain.
		`for $p in document("auction.xml")/site/people/person
		 return <n>{count(document("auction.xml")//listitem)}</n>`,
		`for $c in document("auction.xml")/site/regions/*
		 return for $i in document("auction.xml")/site/regions//item
		 where $i/location = $c/item/location return $i/name/text()`,
		`if (empty(document("auction.xml")/site))
		 then document("auction.xml")/site/people/person/name else "none"`,
	}
	deepSeek, deepDescendant := false, false
	for qi, text := range queries {
		e, err := xq.Parse(text)
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		scanOpts := core.Options{ForceJoinMode: core.ModeMSJ, NoRewrites: true}
		idxOpts := scanOpts
		idxOpts.Indexes = set
		// NoRewrites is a compile option: compile one query per option set.
		want, err := core.Compile(e, scanOpts).Eval(cat, scanOpts)
		if err != nil {
			t.Fatalf("query %d scan: %v", qi, err)
		}
		qIdx := core.Compile(e, idxOpts)
		plan.Walk(qIdx.Plan(idxOpts), func(n *plan.Node) {
			if n.Op == plan.OpIndexPath && n.Seek != nil && n.Depth >= 1 {
				deepSeek = true
				deepDescendant = deepDescendant || n.Seek.Pos != nil
			}
		})
		got, err := qIdx.Eval(cat, idxOpts)
		if err != nil {
			t.Fatalf("query %d indexed: %v", qi, err)
		}
		IdenticalRelations(t, "indexed query "+strings.Fields(text)[0], got, want)
	}
	if !deepSeek || !deepDescendant {
		t.Fatalf("index seek at depth >= 1: %v, descendant seek at depth >= 1: %v; the rewrite did not fire",
			deepSeek, deepDescendant)
	}
}

package core

import (
	"fmt"
	"math/rand"
	"testing"

	"dixq/internal/index"
	"dixq/internal/interp"
	"dixq/internal/interval"
	"dixq/internal/obs"
	"dixq/internal/xmark"
	"dixq/internal/xmltree"
	"dixq/internal/xq"
)

// joinDocs builds two record collections under one root with controllable
// key overlap, for join-pattern differential tests.
func joinDocs(rng *rand.Rand, n int) xmltree.Forest {
	key := func() *xmltree.Node {
		return xmltree.NewElement("k", xmltree.NewText(fmt.Sprintf("v%d", rng.Intn(n/2+1))))
	}
	mk := func(tag string) *xmltree.Node {
		recs := make(xmltree.Forest, n)
		for i := range recs {
			recs[i] = xmltree.NewElement("rec", key(), xmltree.NewElement("p", xmltree.NewText(fmt.Sprint(i))))
		}
		return xmltree.NewElement(tag, recs...)
	}
	return xmltree.Forest{xmltree.NewElement("db", mk("as"), mk("bs"))}
}

// TestDifferentialJoinQueries targets the decorrelation path specifically:
// randomized M:N join queries in every shape the optimizer recognizes,
// compared against the interpreter and the NLJ plans.
func TestDifferentialJoinQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	shapes := []string{
		// Plain nested for with where.
		`for $x in document("d")/db/as/rec
		 return for $y in document("d")/db/bs/rec
		 where $x/k = $y/k return <m>{$x/p/text()}{$y/p/text()}</m>`,
		// Through a let, with count (outer-join-like).
		`for $x in document("d")/db/as/rec
		 let $m := for $y in document("d")/db/bs/rec where $y/k = $x/k return $y
		 return <n c="{count($m)}">{$x/p/text()}</n>`,
		// Inner-join modification (where not empty).
		`for $x in document("d")/db/as/rec
		 let $m := for $y in document("d")/db/bs/rec where $x/k = $y/k return $y/p
		 where not(empty($m)) return <n>{$m}</n>`,
		// Residual conjunct beside the join key.
		`for $x in document("d")/db/as/rec
		 return for $y in document("d")/db/bs/rec
		 where $x/k = $y/k and $y/p != "0" and exists($x/p)
		 return ($x/p/text(), $y/p/text())`,
		// Structural key comparison (deep-equal drives the merge join).
		`for $x in document("d")/db/as/rec
		 return for $y in document("d")/db/bs/rec
		 where deep-equal($x/k, $y/k) return "hit"`,
		// Join key on the outer side of a three-level nesting: the middle
		// loop decorrelates against depth 1.
		`for $x in document("d")/db/as/rec
		 return for $y in document("d")/db/bs/rec
		 where $x/k = $y/k
		 return for $z in document("d")/db/as/rec
		 where $z/k = $y/k
		 return count($z)`,
		// Disjunctive condition: not decorrelatable, must fall back.
		`for $x in document("d")/db/as/rec
		 return for $y in document("d")/db/bs/rec
		 where $x/k = $y/k or empty($y/p)
		 return "o"`,
	}
	for trial := 0; trial < 30; trial++ {
		doc := joinDocs(rng, 3+rng.Intn(6))
		docs := map[string]xmltree.Forest{"d": doc}
		cat := EncodeCatalog(docs)
		for si, shape := range shapes {
			e := xq.MustParse(shape)
			want, err := interp.Eval(e, nil, interp.Catalog(docs))
			if err != nil {
				t.Fatalf("trial %d shape %d: interp: %v", trial, si, err)
			}
			q := Compile(e, Options{})
			for _, mode := range []Mode{ModeMSJ, ModeNLJ} {
				got, err := q.EvalForest(cat, Options{ForceJoinMode: mode})
				if err != nil {
					t.Fatalf("trial %d shape %d (%s): %v", trial, si, mode, err)
				}
				if !got.Equal(want) {
					t.Fatalf("trial %d shape %d (%s): mismatch\n got %s\nwant %s",
						trial, si, mode, got.String(), want.String())
				}
			}
		}
	}
}

func TestMergeJoinActuallyFires(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	doc := joinDocs(rng, 6)
	cat := EncodeCatalog(map[string]xmltree.Forest{"d": doc})
	cases := []struct {
		query string
		want  int
	}{
		{`for $x in document("d")/db/as/rec
		  return for $y in document("d")/db/bs/rec
		  where $x/k = $y/k return "hit"`, 1},
		{`for $x in document("d")/db/as/rec
		  return for $y in document("d")/db/bs/rec
		  where $x/k = $y/k
		  return for $z in document("d")/db/as/rec
		  where $z/k = $y/k
		  return count($z)`, 2},
		// Disjunction cannot use the merge join.
		{`for $x in document("d")/db/as/rec
		  return for $y in document("d")/db/bs/rec
		  where $x/k = $y/k or empty($y/p) return "o"`, 0},
		// Domain depends on the loop variable's own level: no decorrelation.
		{`for $x in document("d")/db/as/rec
		  return for $y in $x/k
		  where $y = $x/p return "o"`, 0},
	}
	for _, tt := range cases {
		stats := &Stats{}
		q := Compile(xq.MustParse(tt.query), Options{})
		if _, err := q.Eval(cat, Options{ForceJoinMode: ModeMSJ, Stats: stats}); err != nil {
			t.Fatalf("%s: %v", tt.query, err)
		}
		if stats.MergeJoins != tt.want {
			t.Errorf("MergeJoins = %d, want %d for:\n%s", stats.MergeJoins, tt.want, tt.query)
		}
	}
}

func TestMergeJoinPreservesDocumentOrder(t *testing.T) {
	// Q9 constrains document order at all three levels (Section 6.3); the
	// MSJ result must be byte-identical to NLJ, which follows the
	// semantics directly. Run across several generated documents.
	for seed := int64(0); seed < 5; seed++ {
		doc := xmark.Generate(xmark.Config{ScaleFactor: 0.0015, Seed: seed})
		cat := EncodeCatalog(map[string]xmltree.Forest{"auction.xml": doc})
		q := Compile(xq.MustParse(xmark.Q9), Options{})
		msj, err := q.Eval(cat, Options{ForceJoinMode: ModeMSJ})
		if err != nil {
			t.Fatal(err)
		}
		nlj, err := q.Eval(cat, Options{ForceJoinMode: ModeNLJ})
		if err != nil {
			t.Fatal(err)
		}
		if len(msj.Tuples) != len(nlj.Tuples) {
			t.Fatalf("seed %d: tuple counts differ: %d vs %d", seed, len(msj.Tuples), len(nlj.Tuples))
		}
		for i := range msj.Tuples {
			a, b := msj.Tuples[i], nlj.Tuples[i]
			if a.S != b.S || !a.L.Equal(b.L) || !a.R.Equal(b.R) {
				t.Fatalf("seed %d: tuple %d differs: %s vs %s", seed, i, a, b)
			}
		}
	}
}

func TestMergeJoinManyToMany(t *testing.T) {
	// Duplicate keys on both sides: the merge join must emit the full
	// cross product of each equal run, in document order.
	doc, err := xmltree.Parse(`<db>
		<as><rec><k>a</k><p>1</p></rec><rec><k>a</k><p>2</p></rec><rec><k>b</k><p>3</p></rec></as>
		<bs><rec><k>a</k><p>x</p></rec><rec><k>b</k><p>y</p></rec><rec><k>a</k><p>z</p></rec></bs>
	</db>`)
	if err != nil {
		t.Fatal(err)
	}
	cat := EncodeCatalog(map[string]xmltree.Forest{"d": xmltree.Forest(doc)})
	query := `for $x in document("d")/db/as/rec
	          return for $y in document("d")/db/bs/rec
	          where $x/k = $y/k
	          return <m>{$x/p/text()}{$y/p/text()}</m>`
	f, err := Run(query, cat, Options{ForceJoinMode: ModeMSJ})
	if err != nil {
		t.Fatal(err)
	}
	want := `<m>1x</m><m>1z</m><m>2x</m><m>2z</m><m>3y</m>`
	if got := interval.XML(f); got != want {
		t.Errorf("got %s, want %s", got, want)
	}
}

func TestEmptyKeysJoin(t *testing.T) {
	// Structural equality of empty forests is true in this model (both
	// sides empty); the engines must agree with the interpreter on it.
	doc, _ := xmltree.Parse(`<db><as><rec><p>1</p></rec></as><bs><rec><p>2</p></rec></bs></db>`)
	docs := map[string]xmltree.Forest{"d": doc}
	cat := EncodeCatalog(docs)
	query := `for $x in document("d")/db/as/rec
	          return for $y in document("d")/db/bs/rec
	          where $x/k = $y/k return "both-keyless"`
	want, err := interp.Run(query, interp.Catalog(docs))
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{ModeMSJ, ModeNLJ} {
		got, err := Run(query, cat, Options{ForceJoinMode: mode})
		if err != nil {
			t.Fatal(err)
		}
		if !interval.MustDecode(got).Equal(want) {
			t.Errorf("%s: got %s, want %s", mode, interval.XML(got), want.String())
		}
	}
}

func TestPositionalVariableAcrossEngines(t *testing.T) {
	doc, err := xmltree.Parse(`<db>
		<as><rec><k>a</k></rec><rec><k>b</k></rec><rec><k>a</k></rec></as>
		<bs><rec><k>a</k></rec><rec><k>c</k></rec></bs>
	</db>`)
	if err != nil {
		t.Fatal(err)
	}
	docs := map[string]xmltree.Forest{"d": doc}
	cat := EncodeCatalog(docs)
	queries := []string{
		// Plain position.
		`for $x at $i in document("d")/db/as/rec return <p n="{$i}">{$x/k/text()}</p>`,
		// Position inside a decorrelated join body.
		`for $x in document("d")/db/as/rec
		 return for $y at $j in document("d")/db/bs/rec
		 where $x/k = $y/k
		 return ($j, $y/k/text())`,
		// Position used as the join key itself.
		`for $x at $i in document("d")/db/as/rec
		 return for $y at $j in document("d")/db/bs/rec
		 where $j = $i
		 return <m>{$i}{$j}</m>`,
		// Nested positions restart per outer iteration.
		`for $x at $i in document("d")/db/as/rec
		 return for $y at $j in $x/k
		 return ($i, $j)`,
	}
	for _, query := range queries {
		want, err := interp.Run(query, interp.Catalog(docs))
		if err != nil {
			t.Fatalf("interp: %v\n%s", err, query)
		}
		for _, mode := range []Mode{ModeMSJ, ModeNLJ} {
			got, err := Run(query, cat, Options{ForceJoinMode: mode})
			if err != nil {
				t.Fatalf("%s: %v\n%s", mode, err, query)
			}
			if !interval.MustDecode(got).Equal(want) {
				t.Fatalf("%s mismatch on:\n%s\n got %s\nwant %s", mode, query, interval.XML(got), want.String())
			}
		}
	}
}

// TestThetaJoinWorkCounts runs XMark Q11 and Q12 — person × auction
// joins on the value comparison income > 5000 * initial — on the sf 0.01
// seed-2 document the joins benchmark runs them on. Under DI-MSJ, with
// and without the document's statistics, the loop must run as a merge
// join that embeds nothing and probes exactly the matching pairs, with
// an answer digit-identical to the nested loop's, which embeds every
// person into every auction environment.
func TestThetaJoinWorkCounts(t *testing.T) {
	cat, _ := generatedCatalog(0.01, 2)
	st := index.BuildSet(cat)
	for _, tc := range []struct {
		name        string
		query       string
		nljEmbedded int64
		pairs       uint64
	}{
		{"Q11", xmark.Q11, 651480, 395},
		{"Q12", xmark.Q12, 333480, 395},
	} {
		q := Compile(xq.MustParse(tc.query), Options{})
		nljStats := &Stats{}
		want, err := q.Eval(cat, Options{ForceJoinMode: ModeNLJ, Stats: nljStats})
		if err != nil {
			t.Fatal(err)
		}
		if nljStats.EmbeddedTuples != tc.nljEmbedded {
			t.Errorf("%s DI-NLJ: %d embedded tuples, want %d", tc.name, nljStats.EmbeddedTuples, tc.nljEmbedded)
		}
		for mode, docStats := range map[string]*index.Set{"DI-MSJ": nil, "DI-MSJ with statistics": st} {
			s := &Stats{}
			before := obs.ProbePairs.Value()
			got, err := q.Eval(cat, Options{DocStats: docStats, Stats: s})
			if err != nil {
				t.Fatal(err)
			}
			if s.MergeJoins < 1 || s.EmbeddedTuples != 0 {
				t.Errorf("%s %s: %d merge joins, %d embedded tuples; want a merge join embedding nothing",
					tc.name, mode, s.MergeJoins, s.EmbeddedTuples)
			}
			if n := obs.ProbePairs.Value() - before; n != tc.pairs {
				t.Errorf("%s %s: %d probe pairs, want %d", tc.name, mode, n, tc.pairs)
			}
			if len(got.Tuples) == 0 {
				t.Fatalf("%s %s: empty answer, the test lost its subject", tc.name, mode)
			}
			identicalRelations(t, fmt.Sprintf("%s %s against DI-NLJ", tc.name, mode), got, want)
		}
	}
}

// TestAutoModeDigitIdentity: statistics never change an answer. Over
// random M:N join documents, DI-MSJ with the document's statistics, DI-MSJ
// without and DI-NLJ compute digit-identical encodings, with and without a
// positional variable, across join shapes.
func TestAutoModeDigitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	queries := []string{
		`for $x in document("d")/db/as/rec
		 return for $y in document("d")/db/bs/rec
		 where $x/k = $y/k return <m>{$x/p/text()}{$y/p/text()}</m>`,
		`for $x in document("d")/db/as/rec
		 let $m := for $y in document("d")/db/bs/rec where $y/k = $x/k return $y
		 return <n c="{count($m)}">{$x/p/text()}</n>`,
		`for $x at $i in document("d")/db/as/rec
		 return for $y in document("d")/db/bs/rec
		 where $x/k = $y/k and $y/p != "0"
		 return ($i, $y/p/text())`,
		`for $x in document("d")/db/as/rec
		 return for $y in document("d")/db/bs/rec
		 where $x/k = $y/k
		 return for $z in document("d")/db/as/rec
		 where $z/k = $y/k
		 return count($z)`,
	}
	for trial := 0; trial < 10; trial++ {
		cat := EncodeCatalog(map[string]xmltree.Forest{"d": joinDocs(rng, 3+rng.Intn(8))})
		st := index.BuildSet(cat)
		for qi, text := range queries {
			q := Compile(xq.MustParse(text), Options{})
			want, err := q.Eval(cat, Options{})
			if err != nil {
				t.Fatalf("trial %d query %d: msj: %v", trial, qi, err)
			}
			for name, opts := range map[string]Options{
				"msj-stats": {DocStats: st},
				"nlj":       {ForceJoinMode: ModeNLJ},
			} {
				got, err := q.Eval(cat, opts)
				if err != nil {
					t.Fatalf("trial %d query %d (%s): %v", trial, qi, name, err)
				}
				if got.String() != want.String() {
					t.Fatalf("trial %d query %d (%s): encoding diverged\n got %s\nwant %s",
						trial, qi, name, got, want)
				}
			}
		}
	}
}

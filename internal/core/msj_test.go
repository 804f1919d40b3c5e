package core

import (
	"fmt"
	"math/rand"
	"testing"

	"dixq/internal/interp"
	"dixq/internal/interval"
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

func TestParallelSortMatchesSerial(t *testing.T) {
	// Identical relations from parallel and serial merge-join sorts, at a
	// scale exceeding the parallel threshold.
	cat, _ := generatedCatalog(0.02, 77)
	q := Compile(xq.MustParse(xmark.Q8), Options{})
	serial, err := q.Eval(cat, Options{ForceJoinMode: ModeMSJ})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := q.Eval(cat, Options{ForceJoinMode: ModeMSJ, Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Tuples) != len(parallel.Tuples) {
		t.Fatalf("tuple counts differ: %d vs %d", len(serial.Tuples), len(parallel.Tuples))
	}
	for i := range serial.Tuples {
		a, b := serial.Tuples[i], parallel.Tuples[i]
		if a.S != b.S || !a.L.Equal(b.L) || !a.R.Equal(b.R) {
			t.Fatalf("tuple %d differs: %s vs %s", i, a, b)
		}
	}
}

func TestSortByKeyParallelOddChunks(t *testing.T) {
	// Odd chunk counts exercise the carry branch of the merge rounds of
	// the shared sort kernel the merge join now runs on.
	vals := make([]int, 5000)
	for i := range vals {
		vals[i] = (i * 7919) % 5003
	}
	order := interval.SortPerm(len(vals), 3, func(a, b int) int { return vals[a] - vals[b] })
	for i := 1; i < len(order); i++ {
		if vals[order[i-1]] > vals[order[i]] {
			t.Fatalf("not sorted at %d", i)
		}
	}
}

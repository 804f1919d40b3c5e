package sqlgen

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"dixq/internal/core"
	"dixq/internal/interp"
	"dixq/internal/xmark"
	"dixq/internal/xmltree"
	"dixq/internal/xq"
)

func figureDocs() map[string]xmltree.Forest {
	return map[string]xmltree.Forest{"auction.xml": xmark.Figure1Forest()}
}

func runSQL(t *testing.T, query string, docs map[string]xmltree.Forest) xmltree.Forest {
	t.Helper()
	e, err := xq.Parse(query)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	f, err := Run(e, docs, time.Time{})
	if err != nil {
		t.Fatalf("Run(%s): %v", query, err)
	}
	return f
}

func TestPathQuery(t *testing.T) {
	docs := figureDocs()
	got := runSQL(t, `document("auction.xml")/site/people/person/name/text()`, docs)
	if got.String() != "Jaak TempestiCong Rosca" {
		t.Errorf("names = %q", got.String())
	}
}

func TestForAndConstructor(t *testing.T) {
	docs := figureDocs()
	got := runSQL(t, `for $p in document("auction.xml")/site/people/person
	                  return <n>{$p/name/text()}</n>`, docs)
	want := `<n>Jaak Tempesti</n><n>Cong Rosca</n>`
	if got.String() != want {
		t.Errorf("got %q, want %q", got.String(), want)
	}
}

func TestQ8OnGeneratedSQL(t *testing.T) {
	// The full Q8 (inner-join form) through SQL on the generic engine,
	// validated against the reference interpreter.
	docs := figureDocs()
	got := runSQL(t, xmark.Q8, docs)
	want, err := interp.Run(xmark.Q8, interp.Catalog(docs))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Errorf("Q8 via SQL = %s, want %s", got.String(), want.String())
	}
	if got.String() != `<item person="Cong Rosca">1</item>` {
		t.Errorf("Q8 = %s", got.String())
	}
}

func TestQ13SQLOnSmallGenerated(t *testing.T) {
	doc := xmark.Generate(xmark.Config{ScaleFactor: 0.0003, Seed: 4})
	docs := map[string]xmltree.Forest{"auction.xml": doc}
	got := runSQL(t, xmark.Q13, docs)
	want, err := interp.Run(xmark.Q13, interp.Catalog(docs))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Errorf("Q13 via SQL differs from interpreter:\n got %s\nwant %s", got.String(), want.String())
	}
	if len(got) == 0 {
		t.Error("Q13 result empty")
	}
}

func TestCountEmptyAndWhere(t *testing.T) {
	docs := map[string]xmltree.Forest{"d": {
		xmltree.NewElement("a", xmltree.NewText("1")),
		xmltree.NewElement("b"),
		xmltree.NewElement("a", xmltree.NewText("2")),
	}}
	tests := []struct {
		query string
		want  string
	}{
		{`count(document("d"))`, `3`},
		{`count(select("<a>", document("d")))`, `2`},
		{`for $x in document("d") where empty($x/text()) return $x`, `<b/>`},
		{`for $x in document("d") where not(empty($x/text())) return count($x/text())`, `11`},
		{`for $x in document("d") where $x/text() = "2" return $x`, `<a>2</a>`},
		{`for $x in document("d") where deep-equal($x, head(document("d"))) return "hit"`, `hit`},
		{`head(document("d"))`, `<a>1</a>`},
		{`tail(document("d"))`, `<b/><a>2</a>`},
		{`(document("d"), "tail")`, `<a>1</a><b/><a>2</a>tail`},
		{`<w a="{head(document("d"))/text()}"/>`, `<w a="1"/>`},
		{`()`, ``},
		{`for $x in document("d") where empty($x/text()) or $x/text() = "1" return $x`, `<a>1</a><b/>`},
		{`for $x in document("d") where not(empty($x/text())) and $x/text() != "1" return $x`, `<a>2</a>`},
		{`data(document("d"))`, `12`},
		{`roots(document("d"))`, `<a/><b/><a/>`},
		{`children(document("d"))`, `12`},
	}
	for _, tt := range tests {
		got := runSQL(t, tt.query, docs)
		if got.String() != tt.want {
			t.Errorf("%s = %q, want %q", tt.query, got.String(), tt.want)
		}
	}
}

func TestNestedForSQL(t *testing.T) {
	docs := map[string]xmltree.Forest{"d": {
		xmltree.NewElement("a", xmltree.NewText("1")),
		xmltree.NewElement("a", xmltree.NewText("2")),
	}}
	got := runSQL(t, `for $x in document("d") return for $y in document("d") return <p>{$x/text()}{$y/text()}</p>`, docs)
	want := `<p>11</p><p>12</p><p>21</p><p>22</p>`
	if got.String() != want {
		t.Errorf("got %q, want %q", got.String(), want)
	}
}

// TestForExitAcrossEnvironments is the regression test for the iterator
// template fix (see forLoop's doc comment): a nested loop's result must be
// consumable per *outer* environment — here counted — which only works
// when the new index is i' = r.l rather than the paper's printed
// i' = i·w_e + r.l.
func TestForExitAcrossEnvironments(t *testing.T) {
	docs := figureDocs()
	got := runSQL(t, `for $p in document("auction.xml")/site/people/person
		let $a := for $t in document("auction.xml")/site/closed_auctions/closed_auction
		          where $t/buyer/@person = $p/@id
		          return $t
		return count($a)`, docs)
	if got.String() != "01" {
		t.Errorf("per-person counts = %q, want \"01\"", got.String())
	}
}

func TestUnsupportedOperators(t *testing.T) {
	docs := figureDocs()
	widths := core.EncodeCatalog(docs).Widths()
	for _, q := range []string{
		`sort(document("auction.xml"))`,
		`reverse(document("auction.xml"))`,
		`distinct(document("auction.xml"))`,
		`document("auction.xml")//person`,
		`for $x in document("auction.xml") where deep-less($x, $x) return $x`,
	} {
		e := xq.MustParse(q)
		if _, err := Generate(Plan(e), widths); !errors.Is(err, ErrUnsupported) {
			t.Errorf("Generate(%s): err = %v, want ErrUnsupported", q, err)
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(Plan(xq.Var{Name: "x"}), nil); err == nil {
		t.Error("unbound variable should fail")
	}
	if _, err := Generate(Plan(xq.Doc{Name: "d"}), nil); err == nil {
		t.Error("missing doc width should fail")
	}
	if _, err := Generate(Plan(xq.Call{Fn: "bogus"}), nil); err == nil {
		t.Error("unknown function should fail")
	}
	// Width overflow: four nested loops over a huge document.
	e := xq.MustParse(`for $a in document("d") return for $b in document("d") return for $c in document("d") return for $e in document("d") return ($a,$b,$c,$e)`)
	if _, err := Generate(Plan(e), map[string]int64{"d": 1 << 40}); !errors.Is(err, ErrOverflow) {
		t.Errorf("err = %v, want ErrOverflow", err)
	}
}

func TestStatementShape(t *testing.T) {
	e := xq.MustParse(xmark.Q8)
	stmt, err := Generate(Plan(e), core.EncodeCatalog(figureDocs()).Widths())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(stmt.SQL, "WITH") {
		t.Error("statement should be a single WITH chain")
	}
	if !strings.Contains(stmt.SQL, "NOT EXISTS") {
		t.Error("statement should contain the ROOTS template's NOT EXISTS")
	}
	if strings.Count(stmt.SQL, ";") != 0 {
		t.Error("must be a single statement (the paper's headline property)")
	}
	if len(stmt.Docs) != 1 || stmt.Docs[0].Doc != "auction.xml" {
		t.Errorf("Docs = %v", stmt.Docs)
	}
	if stmt.Width <= 0 {
		t.Errorf("Width = %d", stmt.Width)
	}
}

// TestDifferentialSQL runs random core expressions through the SQL backend
// and the interpreter; whenever the expression is in the supported
// fragment, the results must agree.
func TestDifferentialSQL(t *testing.T) {
	const trials = 250
	rng := rand.New(rand.NewSource(42))
	supported := 0
	for trial := 0; trial < trials; trial++ {
		docs := map[string]xmltree.Forest{
			"d1": xmltree.RandomForest(rng, 6),
			"d2": xmltree.RandomForest(rng, 6),
		}
		e := xq.RandomExpr(rng, []string{"d1", "d2"}, 3)
		cat := core.EncodeCatalog(docs)
		stmt, err := Generate(Plan(e), cat.Widths())
		if err != nil {
			if errors.Is(err, ErrUnsupported) || errors.Is(err, ErrOverflow) {
				continue
			}
			t.Fatalf("trial %d: Generate(%s): %v", trial, e, err)
		}
		supported++
		db, err := LoadDB(stmt, cat)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Execute(stmt, db)
		if err != nil {
			t.Fatalf("trial %d: Execute(%s): %v\nSQL:\n%s", trial, e, err, stmt.SQL)
		}
		want, err := interp.Eval(e, nil, interp.Catalog(docs))
		if err != nil {
			t.Fatalf("trial %d: interp: %v", trial, err)
		}
		if !got.Equal(want) {
			t.Fatalf("trial %d: mismatch on %s\n got %s\nwant %s\nSQL:\n%s",
				trial, e, got.String(), want.String(), stmt.SQL)
		}
	}
	if supported < trials/4 {
		t.Errorf("only %d/%d random queries in the supported fragment; generator too restrictive", supported, trials)
	}
}

func TestPositionalVariableSQL(t *testing.T) {
	docs := map[string]xmltree.Forest{"d": {
		xmltree.NewElement("a", xmltree.NewText("x")),
		xmltree.NewElement("a", xmltree.NewText("y")),
		xmltree.NewElement("a", xmltree.NewText("z")),
	}}
	got := runSQL(t, `for $v at $i in document("d") return <p n="{$i}">{$v/text()}</p>`, docs)
	want := `<p n="1">x</p><p n="2">y</p><p n="3">z</p>`
	if got.String() != want {
		t.Errorf("got %q, want %q", got.String(), want)
	}
}

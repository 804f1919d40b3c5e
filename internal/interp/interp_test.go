package interp

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"dixq/internal/xmark"
	"dixq/internal/xmltree"
	"dixq/internal/xq"
)

func catalog(t *testing.T) Catalog {
	t.Helper()
	return Catalog{"auction.xml": xmark.Figure1Forest()}
}

func run(t *testing.T, query string, docs Catalog) xmltree.Forest {
	t.Helper()
	out, err := Run(query, docs)
	if err != nil {
		t.Fatalf("Run(%q): %v", query, err)
	}
	return out
}

func TestQ8OnFigure1(t *testing.T) {
	// person1 (Cong Rosca) bought the single closed auction; person0 only
	// sold. The inner-join modification drops person0 from the output.
	out := run(t, xmark.Q8, catalog(t))
	want := `<item person="Cong Rosca">1</item>`
	if got := out.String(); got != want {
		t.Errorf("Q8 = %s, want %s", got, want)
	}
}

func TestQ13OnFigure1(t *testing.T) {
	// Figure 1 has no regions subtree, so Q13 yields the empty forest.
	out := run(t, xmark.Q13, catalog(t))
	if len(out) != 0 {
		t.Errorf("Q13 on figure 1 = %s, want empty", out.String())
	}
}

func TestQ9OnGenerated(t *testing.T) {
	doc := xmark.Generate(xmark.Config{ScaleFactor: 0.002, Seed: 42})
	docs := Catalog{"auction.xml": doc}
	out := run(t, xmark.Q9, docs)
	if len(out) == 0 {
		t.Fatal("Q9 on generated document is empty; generator referential integrity broken?")
	}
	for _, person := range out {
		if person.Label != "<person>" {
			t.Fatalf("result tree label = %q", person.Label)
		}
		if person.Children[0].Label != "@name" {
			t.Fatalf("first child = %q, want @name", person.Children[0].Label)
		}
	}
}

func TestQ8OnGeneratedMatchesManualJoin(t *testing.T) {
	doc := xmark.Generate(xmark.Config{ScaleFactor: 0.003, Seed: 9})
	docs := Catalog{"auction.xml": doc}
	out := run(t, xmark.Q8, docs)

	// Manual join: count auctions per buyer id.
	var people, auctions xmltree.Forest
	for _, c := range doc[0].Children {
		switch c.Label {
		case "<people>":
			people = c.Children
		case "<closed_auctions>":
			auctions = c.Children
		}
	}
	counts := map[string]int{}
	for _, a := range auctions {
		for _, c := range a.Children {
			if c.Label == "<buyer>" {
				counts[c.Children[0].Children.TextValue()]++
			}
		}
	}
	var want xmltree.Forest
	for _, p := range people {
		id := p.Children[0].Children.TextValue()
		if counts[id] == 0 {
			continue
		}
		name := ""
		for _, c := range p.Children {
			if c.Label == "<name>" {
				name = c.Children.TextValue()
			}
		}
		want = append(want, xmltree.NewElement("item",
			xmltree.NewAttribute("person", name),
			xmltree.NewText(itoa(counts[id]))))
	}
	if !out.Equal(want) {
		t.Fatalf("Q8 mismatch:\n got %d trees\nwant %d trees", len(out), len(want))
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func TestBuiltins(t *testing.T) {
	docs := Catalog{"d": xmltree.Forest{
		xmltree.NewElement("a", xmltree.NewText("1")),
		xmltree.NewElement("b", xmltree.NewText("2")),
		xmltree.NewElement("a", xmltree.NewText("3")),
	}}
	tests := []struct {
		query string
		want  string
	}{
		{`document("d")`, `<a>1</a><b>2</b><a>3</a>`},
		{`head(document("d"))`, `<a>1</a>`},
		{`tail(document("d"))`, `<b>2</b><a>3</a>`},
		{`reverse(document("d"))`, `<a>3</a><b>2</b><a>1</a>`},
		{`select("<a>", document("d"))`, `<a>1</a><a>3</a>`},
		{`sort(document("d"))`, `<a>1</a><a>3</a><b>2</b>`},
		{`distinct((document("d"), document("d")))`, `<a>1</a><b>2</b><a>3</a>`},
		{`roots(document("d"))`, `<a/><b/><a/>`},
		{`children(document("d"))`, `123`},
		{`count(document("d"))`, `3`},
		{`count(())`, `0`},
		{`data(document("d"))`, `123`},
		{`node("<w>", document("d"))`, `<w><a>1</a><b>2</b><a>3</a></w>`},
		{`<w&#x3E;x="{document("d")}">{document("d")}</w&#x3E;>`, ``}, // replaced below
	}
	// Drop the placeholder row (kept above to document intent).
	tests = tests[:len(tests)-1]
	for _, tt := range tests {
		out := run(t, tt.query, docs)
		if got := out.String(); got != tt.want {
			t.Errorf("%s = %q, want %q", tt.query, got, tt.want)
		}
	}
}

func TestSubtreesDFS(t *testing.T) {
	docs := Catalog{"d": xmltree.Forest{
		xmltree.NewElement("a", xmltree.NewElement("b", xmltree.NewText("t"))),
	}}
	out := run(t, `subtrees-dfs(document("d"))`, docs)
	want := `<a><b>t</b></a><b>t</b>t`
	if got := out.String(); got != want {
		t.Errorf("subtrees-dfs = %q, want %q", got, want)
	}
	// Descendant step uses subtrees-dfs under children.
	out2 := run(t, `document("d")//b`, docs)
	if got := out2.String(); got != `<b>t</b>` {
		t.Errorf("//b = %q", got)
	}
}

func TestConditions(t *testing.T) {
	docs := Catalog{"d": xmltree.Forest{
		xmltree.NewElement("x", xmltree.NewText("1")),
		xmltree.NewElement("y", xmltree.NewText("2")),
	}}
	tests := []struct {
		query string
		want  string
	}{
		{`for $v in document("d") where $v = "1" return $v`, `<x>1</x>`},
		{`for $v in document("d") where $v != "1" return $v`, `<y>2</y>`},
		{`for $v in document("d") where $v < "2" return $v`, `<x>1</x>`},
		{`for $v in document("d") where $v >= "2" return $v`, `<y>2</y>`},
		{`for $v in document("d") where empty($v/z) return $v`, `<x>1</x><y>2</y>`},
		{`for $v in document("d") where exists($v/text()) return $v`, `<x>1</x><y>2</y>`},
		{`for $v in document("d") where $v = "1" or $v = "2" return $v`, `<x>1</x><y>2</y>`},
		{`for $v in document("d") where $v = "1" and $v = "2" return $v`, ``},
		{`for $v in document("d") where deep-equal($v, $v) return $v`, `<x>1</x><y>2</y>`},
		{`for $v in document("d") where deep-equal($v, head(document("d"))) return $v`, `<x>1</x>`},
		{`for $v in document("d") where deep-less($v, $v) return $v`, ``},
		{`for $v in document("d") where true() return $v`, `<x>1</x><y>2</y>`},
		{`for $v in document("d") where false() return $v`, ``},
		{`let $w := document("d") return $w[2]`, `<y>2</y>`},
		{`let $w := document("d") return $w[text() = "2"]`, `<y>2</y>`},
	}
	for _, tt := range tests {
		out := run(t, tt.query, docs)
		if got := out.String(); got != tt.want {
			t.Errorf("%s = %q, want %q", tt.query, got, tt.want)
		}
	}
}

func TestEvalErrors(t *testing.T) {
	docs := Catalog{}
	bad := []string{
		`$unbound`,
		`document("missing")`,
		`for $x in $nope return $x`,
		`for $x in document("missing") where $y = "1" return $x`,
	}
	for _, q := range bad {
		if _, err := Run(q, docs); err == nil {
			t.Errorf("Run(%q): expected error", q)
		}
	}
	if _, err := Run(`$$$`, docs); err == nil || !strings.Contains(err.Error(), "xquery:") {
		t.Errorf("parse error not surfaced: %v", err)
	}
}

func TestEnvShadowing(t *testing.T) {
	docs := Catalog{"d": xmltree.Forest{xmltree.NewText("outer")}}
	out := run(t, `let $x := document("d") return let $x := "inner" return $x`, docs)
	if got := out.String(); got != "inner" {
		t.Errorf("shadowed let = %q", got)
	}
	out2 := run(t, `let $x := "a" return (for $x in ("b", "c") return $x, $x)`, docs)
	if got := out2.String(); got != "bca" {
		t.Errorf("for shadowing = %q, want bca", got)
	}
}

func TestEvalCallUnknown(t *testing.T) {
	if _, err := Eval(xq.Call{Fn: "bogus"}, nil, nil); err == nil {
		t.Error("unknown function should error")
	}
}

func TestWhereYieldsEmpty(t *testing.T) {
	docs := Catalog{"d": xmltree.Forest{xmltree.NewText("t")}}
	out := run(t, `for $x in document("d") where empty(document("d")) return $x`, docs)
	if len(out) != 0 {
		t.Errorf("where false = %v", out)
	}
}

func TestBudgetMaxSteps(t *testing.T) {
	docs := Catalog{"d": xmltree.Forest{
		xmltree.NewElement("a"), xmltree.NewElement("b"), xmltree.NewElement("c"),
	}}
	e := xq.MustParse(`for $x in document("d") return for $y in document("d") return "t"`)
	ctx := context.Background()
	if _, err := EvalBudget(ctx, e, nil, docs, 2); err != ErrBudgetExceeded {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	out, err := EvalBudget(ctx, e, nil, docs, 100)
	if err != nil || len(out) != 9 {
		t.Fatalf("out = %v, err = %v", out, err)
	}
	// 0 steps is unlimited.
	if _, err := EvalBudget(ctx, e, nil, docs, 0); err != nil {
		t.Fatal(err)
	}
}

// TestBudgetDeadline checks that the run context stops the interpreter:
// a passed deadline at the first loop-body evaluation, and a cancel
// mid-run within one 2^10-step tick.
func TestBudgetDeadline(t *testing.T) {
	docs := Catalog{"d": xmltree.Forest{xmltree.NewElement("a"), xmltree.NewElement("b")}}
	e := xq.MustParse(`for $x in document("d") return $x`)
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := EvalBudget(expired, e, nil, docs, 0); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	live, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	if _, err := EvalBudget(live, e, nil, docs, 0); err != nil {
		t.Fatal(err)
	}
	// A cancel mid-run is seen at the next 2^10-step tick: 2^16 body
	// evaluations, starting past the first poll.
	var wide xmltree.Forest
	for range 1 << 8 {
		wide = append(wide, xmltree.NewElement("a"))
	}
	nested := xq.MustParse(`for $x in document("d") return for $y in document("d") return "t"`)
	ctx, cancelRun := context.WithCancel(context.Background())
	ev := &evaluator{ctx: ctx, docs: Catalog{"d": wide}, steps: 1}
	cancelRun()
	if _, err := ev.eval(nested, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: err = %v, want context.Canceled", err)
	}
	if ev.steps != 1<<10+1 {
		t.Fatalf("cancel seen at step %d, want at the 2^10 tick", ev.steps)
	}
}

func TestEvalCondPublic(t *testing.T) {
	docs := Catalog{"d": xmltree.Forest{xmltree.NewText("x")}}
	got, err := EvalCond(xq.Empty{E: xq.Doc{Name: "d"}}, nil, docs)
	if err != nil || got {
		t.Fatalf("EvalCond = %v, %v", got, err)
	}
	if _, err := EvalCond(xq.Empty{E: xq.Var{Name: "nope"}}, nil, docs); err == nil {
		t.Fatal("expected error")
	}
}

func TestOrderBySemantics(t *testing.T) {
	docs := Catalog{"d": xmltree.Forest{
		xmltree.NewElement("item", xmltree.NewElement("p", xmltree.NewText("3")), xmltree.NewElement("n", xmltree.NewText("c"))),
		xmltree.NewElement("item", xmltree.NewElement("p", xmltree.NewText("1")), xmltree.NewElement("n", xmltree.NewText("a"))),
		xmltree.NewElement("item", xmltree.NewElement("p", xmltree.NewText("2")), xmltree.NewElement("n", xmltree.NewText("b"))),
		xmltree.NewElement("item", xmltree.NewElement("p", xmltree.NewText("1")), xmltree.NewElement("n", xmltree.NewText("a2"))),
	}}
	out := run(t, `for $x in document("d") order by $x/p return $x/n/text()`, docs)
	if got := out.String(); got != "aa2bc" {
		t.Errorf("order by = %q, want aa2bc (stable within equal keys)", got)
	}
	out2 := run(t, `for $x in document("d") order by $x/p descending return $x/n/text()`, docs)
	if got := out2.String(); got != "cbaa2" {
		t.Errorf("descending = %q, want cbaa2", got)
	}
	out3 := run(t, `for $x in document("d") where $x/p != "2" order by $x/p, $x/n return $x/n/text()`, docs)
	if got := out3.String(); got != "aa2c" {
		t.Errorf("where+order by multi-key = %q, want aa2c", got)
	}
}

func TestIfAndQuantifierSemantics(t *testing.T) {
	docs := Catalog{"d": xmltree.Forest{
		xmltree.NewElement("r", xmltree.NewElement("a", xmltree.NewText("1")), xmltree.NewElement("a", xmltree.NewText("2"))),
		xmltree.NewElement("r", xmltree.NewElement("a", xmltree.NewText("2"))),
		xmltree.NewElement("r"),
	}}
	tests := []struct{ query, want string }{
		{`for $x in document("d") return if (empty($x/a)) then "none" else count($x/a)`, `2` + `1` + `none`},
		{`for $x in document("d") where some $a in $x/a satisfies $a = "1" return "s"`, `s`},
		{`for $x in document("d") where every $a in $x/a satisfies $a = "2" return "e"`, `ee`},
		{`for $x in document("d") where every $a in $x/a satisfies $a = "1" or $a = "2" return "o"`, `ooo`},
	}
	for _, tt := range tests {
		out := run(t, tt.query, docs)
		if got := out.String(); got != tt.want {
			t.Errorf("%s = %q, want %q", tt.query, got, tt.want)
		}
	}
}

func TestMinMaxLast(t *testing.T) {
	docs := Catalog{
		"d": xmltree.Forest{
			xmltree.NewText("b"), xmltree.NewText("c"), xmltree.NewText("a"),
		},
		"n": xmltree.Forest{
			xmltree.NewText("20"), xmltree.NewText("3"), xmltree.NewText("11.5"),
		},
	}
	tests := []struct{ query, want string }{
		// min/max are numeric aggregates: non-numeric roots are skipped,
		// and an all-non-numeric input yields the empty sequence.
		{`min(document("n"))`, "3"},
		{`max(document("n"))`, "20"},
		{`min(document("d"))`, ""},
		{`max(document("d"))`, ""},
		{`last(document("d"))`, "a"},
		{`head(document("d"))`, "b"},
		{`min(())`, ""},
	}
	for _, tt := range tests {
		out := run(t, tt.query, docs)
		if got := out.String(); got != tt.want {
			t.Errorf("%s = %q, want %q", tt.query, got, tt.want)
		}
	}
}

func TestUserFunctionSemantics(t *testing.T) {
	docs := Catalog{"d": xmltree.Forest{
		xmltree.NewElement("person", xmltree.NewElement("name", xmltree.NewText("A"))),
		xmltree.NewElement("person", xmltree.NewElement("name", xmltree.NewText("B"))),
	}}
	out := run(t, `
		declare function local:name($p) { $p/name/text() };
		declare function local:tag($p) { <n>{local:name($p)}</n> };
		for $x in document("d") return local:tag($x)`, docs)
	if got := out.String(); got != `<n>A</n><n>B</n>` {
		t.Errorf("got %q", got)
	}
	// Shadowing safety: caller's variable named like the parameter.
	out2 := run(t, `
		declare function pair($x) { ($x, $x) };
		let $x := "lit" return pair(("p", $x))`, docs)
	if got := out2.String(); got != "plitplit" {
		t.Errorf("got %q", got)
	}
}

func TestContainsSemantics(t *testing.T) {
	docs := Catalog{"d": xmltree.Forest{
		xmltree.NewElement("item",
			xmltree.NewElement("desc", xmltree.NewText("pure gold ring"))),
		xmltree.NewElement("item",
			xmltree.NewElement("desc", xmltree.NewText("silver band"))),
	}}
	tests := []struct{ query, want string }{
		{`for $i in document("d") where contains($i/desc, "gold") return "g"`, "g"},
		{`for $i in document("d") where contains($i/desc, "") return "e"`, "ee"},
		{`for $i in document("d") where not(contains($i, "band")) return "n"`, "n"},
		{`for $i in document("d") where contains("goldfish", $i/desc/text()) return "rev"`, ""},
	}
	for _, tt := range tests {
		out := run(t, tt.query, docs)
		if got := out.String(); got != tt.want {
			t.Errorf("%s = %q, want %q", tt.query, got, tt.want)
		}
	}
	// Error propagation inside contains operands.
	if _, err := Run(`for $i in document("d") where contains($nope, "x") return "y"`, docs); err == nil {
		t.Error("unbound var in contains should fail")
	}
	if _, err := Run(`for $i in document("d") where contains($i, $nope) return "y"`, docs); err == nil {
		t.Error("unbound var in contains rhs should fail")
	}
}

func TestCondErrorPropagation(t *testing.T) {
	docs := Catalog{"d": xmltree.Forest{xmltree.NewText("x")}}
	bad := []string{
		`for $v in document("d") where $nope < $v return $v`,
		`for $v in document("d") where $v < $nope return $v`,
		`for $v in document("d") where $nope = $v return $v`,
		`for $v in document("d") where $v = $nope return $v`,
		`for $v in document("d") where not(empty($nope)) return $v`,
		`for $v in document("d") where empty($v/z) and empty($nope) return $v`,
		`for $v in document("d") where empty($nope) or empty($v) return $v`,
		`for $v in document("d") where empty($v) or empty($nope) return $v`,
	}
	for _, q := range bad {
		if _, err := Run(q, docs); err == nil {
			t.Errorf("Run(%q): expected error", q)
		}
	}
}

func TestEvalCondUnknownType(t *testing.T) {
	if _, err := EvalCond(nil, nil, nil); err == nil {
		t.Error("nil condition should error")
	}
}

package xq

import (
	"strings"
	"testing"
)

// The paper's benchmark queries in the form used by Section 6.
const (
	queryQ13 = `for $i in document("auction.xml")/site/regions/australia/item
return <item name="{$i/name/text()}">{$i/description}</item>`

	queryQ8 = `for $p in document("auction.xml")/site/people/person
let $a := for $t in document("auction.xml")/site/closed_auctions/closed_auction
          where $t/buyer/@person = $p/@id
          return $t
where not(empty($a))
return <item person="{$p/name/text()}">{count($a)}</item>`

	queryQ9 = `for $p in document("auction.xml")/site/people/person
let $a := for $t in document("auction.xml")/site/closed_auctions/closed_auction
          let $n := for $t2 in document("auction.xml")/site/regions/europe/item
                    where $t/itemref/@item = $t2/@id
                    return $t2
          where $p/@id = $t/buyer/@person
          return <item>{$n/name/text()}</item>
where not(empty($a))
return <person name="{$p/name/text()}">{$a}</person>`
)

func mustParseQ(t *testing.T, src string) Expr {
	t.Helper()
	e, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return e
}

func TestParsePaths(t *testing.T) {
	tests := []struct {
		src  string
		want string
	}{
		{`$v`, `$v`},
		{`document("d")`, `document("d")`},
		{`$v/a`, `select("<a>", children($v))`},
		{`$v/a/@b`, `select("@b", children(select("<a>", children($v))))`},
		{`$v/text()`, `seltext(children($v))`},
		{`$v/*`, `children($v)`},
		{`$v//a`, `select("<a>", subtrees-dfs(children($v)))`},
		{`roots($v)`, `roots($v)`},
		{`subtrees-dfs($v)`, `subtrees-dfs($v)`},
		{`head(tail($v))`, `head(tail($v))`},
		{`reverse(sort(distinct($v)))`, `reverse(sort(distinct($v)))`},
		{`select("@id", $v)`, `select("@id", $v)`},
		{`node("<x>", $v)`, `node("<x>", $v)`},
		{`element("x", $v)`, `node("<x>", $v)`},
		{`count($v)`, `count($v)`},
		{`data($v)`, `data($v)`},
		{`string($v)`, `data($v)`},
		{`()`, `()`},
		{`($a, $b)`, `concat($a, $b)`},
		{`"lit"`, `const(lit)`},
		{`'it''s'`, `const(it's)`},
		{`42`, `const(42)`},
		{`42.12`, `const(42.12)`},
		{`$v/a[2]`, `head(drop(1, select("<a>", children($v))))`},
	}
	for _, tt := range tests {
		e := mustParseQ(t, tt.src)
		if got := e.String(); got != tt.want {
			t.Errorf("Parse(%q) = %s, want %s", tt.src, got, tt.want)
		}
	}
}

func TestParseFLWR(t *testing.T) {
	e := mustParseQ(t, `for $x in $d/a let $y := $x/b where $y = "1" return $y`)
	f, ok := e.(For)
	if !ok {
		t.Fatalf("top = %T, want For", e)
	}
	l, ok := f.Body.(Let)
	if !ok {
		t.Fatalf("for body = %T, want Let", f.Body)
	}
	w, ok := l.Body.(Where)
	if !ok {
		t.Fatalf("let body = %T, want Where", l.Body)
	}
	if _, ok := w.Cond.(Equal); !ok {
		t.Fatalf("cond = %T, want Equal", w.Cond)
	}
	if v, ok := w.Body.(Var); !ok || v.Name != "y" {
		t.Fatalf("where body = %v", w.Body)
	}
}

func TestParseMultiBinding(t *testing.T) {
	e := mustParseQ(t, `for $x in $d, $y in $x return ($x, $y)`)
	f1 := e.(For)
	f2, ok := f1.Body.(For)
	if !ok || f1.Var != "x" || f2.Var != "y" {
		t.Fatalf("nested for desugar wrong: %s", e)
	}
}

func TestParseComparisons(t *testing.T) {
	tests := []struct {
		src  string
		want string
	}{
		{`for $x in $d where $x = $y return $x`, `(data($x) = data($y))`},
		{`for $x in $d where $x != $y return $x`, `not((data($x) = data($y)))`},
		{`for $x in $d where $x < $y return $x`, `(data($x) < data($y))`},
		{`for $x in $d where $x > $y return $x`, `(data($y) < data($x))`},
		{`for $x in $d where $x <= $y return $x`, `not((data($y) < data($x)))`},
		{`for $x in $d where $x >= $y return $x`, `not((data($x) < data($y)))`},
		{`for $x in $d where deep-equal($x, $y) return $x`, `($x = $y)`},
		{`for $x in $d where deep-less($x, $y) return $x`, `deep-less($x, $y)`},
		{`for $x in $d where empty($x) return $x`, `empty($x)`},
		{`for $x in $d where exists($x) return $x`, `not(empty($x))`},
		{`for $x in $d where $x return $x`, `not(empty($x))`},
		{`for $x in $d where true() return $x`, `empty(())`},
		{`for $x in $d where false() return $x`, `not(empty(()))`},
		{`for $x in $d where $x = "1" and $y = "2" or not($z) return $x`,
			`(((data($x) = const(1)) and (data($y) = const(2))) or not(not(empty($z))))`},
	}
	for _, tt := range tests {
		e := mustParseQ(t, tt.src)
		w, ok := e.(For).Body.(Where)
		if !ok {
			t.Errorf("Parse(%q): no where clause", tt.src)
			continue
		}
		if got := w.Cond.String(); got != tt.want {
			t.Errorf("Parse(%q) cond = %s, want %s", tt.src, got, tt.want)
		}
	}
}

func TestParseConstructor(t *testing.T) {
	tests := []struct {
		src  string
		want string
	}{
		{`<a/>`, `node("<a>", ())`},
		{`<a>text</a>`, `node("<a>", const(text))`},
		{`<a x="1"/>`, `node("<a>", node("@x", const(1)))`},
		{`<a x="{$v}"/>`, `node("<a>", node("@x", data($v)))`},
		{`<a>{$v}</a>`, `node("<a>", $v)`},
		{`<a>x{$v}y</a>`, `node("<a>", concat(concat(const(x), $v), const(y)))`},
		{`<a><b/></a>`, `node("<a>", node("<b>", ()))`},
		{`<a>{{literal}}</a>`, `node("<a>", const({literal}))`},
		// The stored text is "&<"; const() renders it re-escaped.
		{`<a>&amp;&lt;</a>`, `node("<a>", const(&amp;&lt;))`},
		{`<a x="p{$v}s"/>`, `node("<a>", node("@x", concat(concat(const(p), data($v)), const(s))))`},
	}
	for _, tt := range tests {
		e := mustParseQ(t, tt.src)
		if got := e.String(); got != tt.want {
			t.Errorf("Parse(%q) = %s, want %s", tt.src, got, tt.want)
		}
	}
}

func TestParsePredicate(t *testing.T) {
	e := mustParseQ(t, `$d/item[price = "42"]`)
	f, ok := e.(For)
	if !ok {
		t.Fatalf("predicate should desugar to For, got %T", e)
	}
	w := f.Body.(Where)
	eq := w.Cond.(Equal)
	if !strings.Contains(eq.L.String(), `select("<price>"`) {
		t.Errorf("relative path in predicate = %s", eq.L)
	}
	if v, ok := w.Body.(Var); !ok || v.Name != f.Var {
		t.Errorf("predicate body should return the context var, got %s", w.Body)
	}

	e2 := mustParseQ(t, `$d/item[@id = "i1"]/name`)
	if !strings.HasPrefix(e2.String(), `select("<name>", children(for $dot`) {
		t.Errorf("steps after predicate = %s", e2)
	}

	e3 := mustParseQ(t, `$d/item[.= "x"]`)
	if !strings.Contains(e3.String(), "data($dot") {
		t.Errorf("context item predicate = %s", e3)
	}

	e4 := mustParseQ(t, `$d/item[text() = "x"]`)
	if !strings.Contains(e4.String(), "seltext(children($dot") {
		t.Errorf("text() in predicate = %s", e4)
	}

	e5 := mustParseQ(t, `$d/item[@id]`)
	if !strings.Contains(e5.String(), `not(empty(select("@id"`) {
		t.Errorf("EBV predicate = %s", e5)
	}
}

func TestParseBenchmarkQueries(t *testing.T) {
	for name, src := range map[string]string{"Q8": queryQ8, "Q9": queryQ9, "Q13": queryQ13} {
		e := mustParseQ(t, src)
		if _, ok := e.(For); !ok {
			t.Errorf("%s: top-level %T, want For", name, e)
		}
		docs := Documents(e)
		if len(docs) != 1 || docs[0] != "auction.xml" {
			t.Errorf("%s: Documents = %v", name, docs)
		}
		free := FreeVars(e)
		if len(free) != 1 || !free["doc:auction.xml"] {
			t.Errorf("%s: FreeVars = %v", name, free)
		}
	}
}

func TestParseComments(t *testing.T) {
	e := mustParseQ(t, `(: outer (: nested :) :) $v (: trailing :)`)
	if e.String() != "$v" {
		t.Errorf("comment handling: %s", e)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`for $x in return $x`,
		`for $x return $x`,
		`for x in $d return $x`,
		`let $x = $d return $x`,
		`$`,
		`$v/`,
		`$v/[1]`,
		`$v[`,
		`$v[0]`,
		`document(x)`,
		`unknownfn($v)`,
		`<a>`,
		`<a></b>`,
		`<a x=1/>`,
		`<a>{$v</a>`,
		`<a>}</a>`,
		`<a>&bad;</a>`,
		`"unterminated`,
		`(: unterminated`,
		`$a $b`,
		`empty($a)`,
		`for $x in empty($y) return $x`,
		`.`,
		`price`,
		`where $x return $x and`,
		`($a, )`,
		`select($v)`,
		`node($v)`,
		`<a x="{$v"/>`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): expected error", src)
		}
	}
}

func TestSyntaxErrorPosition(t *testing.T) {
	_, err := Parse("for $x in $d\nreturn $x where")
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("err = %T (%v), want *SyntaxError", err, err)
	}
	if se.Line != 2 {
		t.Errorf("Line = %d, want 2", se.Line)
	}
	if !strings.Contains(se.Error(), "2:") {
		t.Errorf("Error() = %q", se.Error())
	}
}

// TestNestingLimit: parentheses, constructors, predicates, conditions
// and let chains nested past maxNesting are a *SyntaxError positioned in
// the query, found without descending further — a million parentheses
// would otherwise overflow the goroutine stack — while nesting well below
// the limit parses.
func TestNestingLimit(t *testing.T) {
	const ok, over = maxNesting / 3, maxNesting + 1
	for _, tc := range []struct {
		name                            string
		head, open, inner, closer, tail string
	}{
		{"parentheses", "", "(", "1", ")", ""},
		{"constructors", "", "<a>", "", "</a>", ""},
		{"predicates", `document("d")/a`, "[b", "", "]", ""},
		{"conditions", `for $x in document("d")/a where `, "(", "$x", ")", " return $x"},
		{"lets", "", "let $x := ", "1", " return $x", ""},
	} {
		nest := func(n int) string {
			return tc.head + strings.Repeat(tc.open, n) + tc.inner + strings.Repeat(tc.closer, n) + tc.tail
		}
		if _, err := Parse(nest(ok)); err != nil {
			t.Errorf("%s nested %d deep: %v", tc.name, ok, err)
		}
		for _, n := range []int{over, 1_000_000} {
			_, err := Parse(nest(n))
			se, isSyntax := err.(*SyntaxError)
			if !isSyntax || !strings.Contains(se.Msg, "nests deeper") || se.Line != 1 || se.Col < 2 {
				t.Errorf("%s nested %d deep: %v, want a positioned nesting-limit syntax error", tc.name, n, err)
			}
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse should panic on bad input")
		}
	}()
	MustParse("$")
}

func TestExprStrings(t *testing.T) {
	// Smoke-test the remaining String methods.
	e := Let{Var: "x", Value: Doc{Name: "d"}, Body: Where{
		Cond: And{L: Empty{E: Var{Name: "x"}}, R: Or{L: Less{L: Var{Name: "x"}, R: Var{Name: "x"}}, R: Not{C: Empty{E: Var{Name: "x"}}}}},
		Body: Const{},
	}}
	want := `let $x := document("d") return where (empty($x) and (deep-less($x, $x) or not(empty($x)))) return ()`
	if got := e.String(); got != want {
		t.Errorf("String = %s, want %s", got, want)
	}
}

func TestFreeVarsOverConditions(t *testing.T) {
	e := MustParse(`for $x in $d where deep-less($a, $x) or not(empty($b)) and $c = "1" return $x`)
	free := FreeVars(e)
	for _, want := range []string{"a", "b", "c", "d"} {
		if !free[want] {
			t.Errorf("FreeVars missing %q: %v", want, free)
		}
	}
	if free["x"] {
		t.Errorf("bound variable reported free: %v", free)
	}
}

func TestFreeVarsShadowing(t *testing.T) {
	// $x is free in the let value but bound in the body.
	e := MustParse(`let $x := $x return $x`)
	if free := FreeVars(e); !free["x"] || len(free) != 1 {
		t.Errorf("FreeVars = %v", free)
	}
	// A for over $y binding $y: domain occurrence is free.
	e2 := MustParse(`for $y in ($y, $z) return $y`)
	free := FreeVars(e2)
	if !free["y"] || !free["z"] {
		t.Errorf("FreeVars = %v", free)
	}
}

func TestAttrConstructorEdgeCases(t *testing.T) {
	tests := []struct{ src, want string }{
		{`<a x="a&amp;b"/>`, `node("<a>", node("@x", const(a&amp;b)))`},
		{`<a x="{{esc}}"/>`, `node("<a>", node("@x", const({esc})))`},
		{`<a x=""/>`, `node("<a>", node("@x", ()))`},
		{`<a x='sq{$v}'/>`, `node("<a>", node("@x", concat(const(sq), data($v))))`},
	}
	for _, tt := range tests {
		e := mustParseQ(t, tt.src)
		if got := e.String(); got != tt.want {
			t.Errorf("Parse(%q) = %s, want %s", tt.src, got, tt.want)
		}
	}
	for _, bad := range []string{`<a x="}"/>`, `<a x="&bad;"/>`, `<a x="&toolongentity1234;"/>`, `<a x="unterminated`} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q): expected error", bad)
		}
	}
}

func TestConstructorEntities(t *testing.T) {
	e := mustParseQ(t, `<a>&quot;&apos;&gt;</a>`)
	if got := e.String(); got != `node("<a>", const("'&gt;))` {
		t.Errorf("entities = %s", got)
	}
}

func TestOrderBy(t *testing.T) {
	e := mustParseQ(t, `for $x in $d/item order by $x/price return $x/name`)
	// Linear desugar: the loop builds a <#ord>(<#key>, <#val>) wrapper per
	// iteration, ordby reorders the wrappers, and the <#val> bodies are
	// unwrapped in sorted order.
	if s := e.String(); !strings.HasPrefix(s, `children(select("<#val>", children(ordby("asc", for $x in `) ||
		!strings.Contains(s, `node("<#ord>", concat(node("<#key>", node("<#k1>", `) {
		t.Fatalf("order by desugar = %s", s)
	}
	e2 := mustParseQ(t, `for $x in $d/item order by $x/price descending return $x`)
	if s := e2.String(); !strings.Contains(s, `ordby("desc", `) {
		t.Fatalf("descending desugar = %s", s)
	}
	// Multiple keys and explicit ascending parse; each key gets its own
	// <#kN> part.
	e3 := mustParseQ(t, `for $x in $d order by $x/a, $x/b ascending return $x`)
	if s := e3.String(); !strings.Contains(s, `node("<#k1>", `) || !strings.Contains(s, `node("<#k2>", `) {
		t.Fatalf("multi-key desugar = %s", s)
	}
	// order by without a for clause is rejected.
	if _, err := Parse(`let $x := $d order by $x return $x`); err == nil {
		t.Error("order by without for should fail")
	}
	if _, err := Parse(`for $x in $d order $x return $x`); err == nil {
		t.Error("order without by should fail")
	}
}

func TestIfThenElse(t *testing.T) {
	e := mustParseQ(t, `if (empty($a)) then "none" else count($a)`)
	want := `concat(where empty($a) return const(none), where not(empty($a)) return count($a))`
	if got := e.String(); got != want {
		t.Errorf("if desugar = %s, want %s", got, want)
	}
	// Nested in FLWR return.
	mustParseQ(t, `for $x in $d return if ($x = "1") then <one/> else <other/>`)
	for _, bad := range []string{
		`if empty($a) then "x" else "y"`,
		`if (empty($a)) then "x"`,
		`if (empty($a)) "x" else "y"`,
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q): expected error", bad)
		}
	}
}

func TestQuantifiers(t *testing.T) {
	e := mustParseQ(t, `for $x in $d where some $y in $x/a satisfies $y = "1" return $x`)
	cond := e.(For).Body.(Where).Cond
	if _, ok := cond.(Not); !ok {
		t.Fatalf("some desugar = %s", cond)
	}
	e2 := mustParseQ(t, `for $x in $d where every $y in $x/a satisfies $y = "1" return $x`)
	cond2 := e2.(For).Body.(Where).Cond
	if _, ok := cond2.(Empty); !ok {
		t.Fatalf("every desugar = %s", cond2)
	}
	for _, bad := range []string{
		`for $x in $d where some $y in $x return $x`,
		`for $x in $d where some y in $x satisfies $y return $x`,
		`for $x in $d where every $y satisfies $y return $x`,
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q): expected error", bad)
		}
	}
}

func TestContainsParses(t *testing.T) {
	e := mustParseQ(t, `for $x in $d where contains($x/description, "gold") return $x`)
	w := e.(For).Body.(Where)
	if _, ok := w.Cond.(Contains); !ok {
		t.Fatalf("cond = %T, want Contains", w.Cond)
	}
	if _, err := Parse(`contains($a, $b)`); err == nil {
		t.Error("contains in forest position should fail")
	}
}

func TestPositionalVariable(t *testing.T) {
	e := mustParseQ(t, `for $x at $i in $d return ($i, $x)`)
	f := e.(For)
	if f.Var != "x" || f.Pos != "i" {
		t.Fatalf("For = %+v", f)
	}
	if got := f.String(); got != `for $x at $i in $d return concat($i, $x)` {
		t.Errorf("String = %s", got)
	}
	free := FreeVars(e)
	if free["i"] || free["x"] || !free["d"] {
		t.Errorf("FreeVars = %v", free)
	}
	for _, bad := range []string{
		`for $x at $x in $d return $x`,
		`for $x at in $d return $x`,
		`for $x at $i, in $d return $x`,
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q): expected error", bad)
		}
	}
}

func TestUserFunctions(t *testing.T) {
	e := mustParseQ(t, `
		declare function local:names($p) { $p/name/text() };
		declare function local:both($a, $b) { (local:names($a), local:names($b)) };
		for $x in $d/person return local:both($x, $x)`)
	// Calls are inlined: no Call nodes with unknown Fn survive.
	if !strings.Contains(e.String(), "seltext") {
		t.Errorf("inline expansion missing: %s", e)
	}
	bad := []string{
		// Recursive (self-call before declaration completes).
		`declare function f($x) { f($x) }; f($d)`,
		// Free variable in body.
		`declare function f($x) { $y }; f($d)`,
		// Duplicate parameter.
		`declare function f($x, $x) { $x }; f($d, $d)`,
		// Duplicate declaration.
		`declare function f($x) { $x }; declare function f($y) { $y }; f($d)`,
		// Arity mismatch.
		`declare function f($x) { $x }; f($d, $d)`,
		// Missing semicolon.
		`declare function f($x) { $x } f($d)`,
		// declare without function.
		`declare variable $x := 1; $x`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): expected error", src)
		}
	}
}

func TestUserFunctionNoCapture(t *testing.T) {
	// The function body's parameter must not capture the caller's $p.
	e := mustParseQ(t, `
		declare function wrap($v) { <w>{$v}</w> };
		let $v := "outer" return wrap(($v, "x"))`)
	s := e.String()
	// The inlined binding uses a generated name, not $v.
	if !strings.Contains(s, "let $arg") {
		t.Errorf("expected generated argument binding: %s", s)
	}
}

func TestUserFunctionZeroArgs(t *testing.T) {
	e := mustParseQ(t, `declare function two() { ("a", "b") }; count(two())`)
	if got := e.String(); got != `count(concat(const(a), const(b)))` {
		t.Errorf("zero-arg inline = %s", got)
	}
}

func TestParenthesizedConditions(t *testing.T) {
	tests := []struct{ src, want string }{
		{`for $x in $d where (empty($x) or $x = "1") and $x != "2" return $x`,
			`((empty($x) or (data($x) = const(1))) and not((data($x) = const(2))))`},
		{`for $x in $d where ($x) return $x`, `not(empty($x))`},
		{`for $x in $d where (($x = "1")) return $x`, `(data($x) = const(1))`},
		// Parenthesized forest expressions still work in conditions.
		{`for $x in $d where ($x, $x) = "11" return $x`, `(data(concat($x, $x)) = const(11))`},
		{`for $x in $d where ($x)/a return $x`, `not(empty(select("<a>", children($x))))`},
		{`for $x in $d where ($x)[1] return $x`, `not(empty(head($x)))`},
	}
	for _, tt := range tests {
		e := mustParseQ(t, tt.src)
		w := e.(For).Body.(Where)
		if got := w.Cond.String(); got != tt.want {
			t.Errorf("%s\n cond = %s\n want %s", tt.src, got, tt.want)
		}
	}
}

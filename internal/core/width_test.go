package core

import (
	"math/big"
	"strings"
	"testing"

	"dixq/internal/xmark"
	"dixq/internal/xq"
)

func TestWidthExample41(t *testing.T) {
	// Example 4.1/4.2: an <item> wrapping content of width 90 has width
	// 92 (w_node = w + 2).
	e := xq.Call{Fn: xq.FnNode, Label: "<item>", Args: []xq.Expr{xq.Doc{Name: "d"}}}
	w, err := AnalyzeWidth(e, map[string]*big.Int{"d": big.NewInt(90)})
	if err != nil {
		t.Fatal(err)
	}
	if w.Width.Cmp(big.NewInt(92)) != 0 {
		t.Errorf("width = %s, want 92", w.Width)
	}
}

func TestWidthRules(t *testing.T) {
	docs := map[string]*big.Int{"d": big.NewInt(10)}
	tests := []struct {
		query  string
		width  int64
		digits int
	}{
		{`document("d")`, 10, 1},
		{`(document("d"), document("d"))`, 20, 1},
		{`head(document("d"))`, 10, 1},
		{`reverse(document("d"))`, 10, 2},
		{`sort(document("d"))`, 10, 2},
		{`subtrees-dfs(document("d"))`, 100, 2},
		{`count(document("d"))`, 2, 1},
		{`for $x in document("d") return $x`, 100, 2},
		{`for $x in document("d") return for $y in document("d") return ($x, $y)`, 10 * 10 * 20, 3},
		{`let $x := document("d") return $x`, 10, 1},
		{`for $x in document("d") where $x = "a" return count($x)`, 20, 2},
		{`"abc"`, 2, 1},
	}
	for _, tt := range tests {
		e := xq.MustParse(tt.query)
		w, err := AnalyzeWidth(e, docs)
		if err != nil {
			t.Errorf("%s: %v", tt.query, err)
			continue
		}
		if w.Width.Cmp(big.NewInt(tt.width)) != 0 {
			t.Errorf("%s: width = %s, want %d", tt.query, w.Width, tt.width)
		}
		if w.Digits != tt.digits {
			t.Errorf("%s: digits = %d, want %d", tt.query, w.Digits, tt.digits)
		}
	}
}

func TestWidthQ9GrowsPolynomially(t *testing.T) {
	// Q9 nests three loops, so its width bound is a degree>=3 polynomial
	// in the document width. At the paper's largest scale (1.09 GB, ~10⁷
	// wide) the scalar bound overflows int64 — which is exactly why the
	// evaluator uses digit-vector keys (the "sufficient number of integer
	// attributes" of Section 4.3, here w.Digits of them).
	e := xq.MustParse(xmark.Q9)
	docW := big.NewInt(10_000_000)
	w, err := AnalyzeWidth(e, map[string]*big.Int{"auction.xml": docW})
	if err != nil {
		t.Fatal(err)
	}
	if w.Width.IsInt64() {
		t.Errorf("Q9 width bound %s fits int64; expected polynomial blow-up", w.Width)
	}
	if w.Digits < 3 {
		t.Errorf("Q9 digits = %d, want >= 3 (three loop levels)", w.Digits)
	}

	// Q8 (two levels) stays quadratic: w ~ docW².
	q8, err := AnalyzeWidth(xq.MustParse(xmark.Q8), map[string]*big.Int{"auction.xml": docW})
	if err != nil {
		t.Fatal(err)
	}
	quad := new(big.Int).Mul(docW, docW)
	if q8.Width.Cmp(quad) < 0 {
		t.Errorf("Q8 width %s below docW², suspicious", q8.Width)
	}
}

func TestWidthErrors(t *testing.T) {
	cases := []xq.Expr{
		xq.Var{Name: "nope"},
		xq.Doc{Name: "missing"},
		xq.Call{Fn: "bogus"},
		xq.Where{Cond: xq.Empty{E: xq.Var{Name: "nope"}}, Body: xq.Const{}},
		xq.For{Var: "x", Domain: xq.Var{Name: "nope"}, Body: xq.Const{}},
		xq.Let{Var: "x", Value: xq.Var{Name: "nope"}, Body: xq.Const{}},
	}
	for _, e := range cases {
		if _, err := AnalyzeWidth(e, nil); err == nil {
			t.Errorf("AnalyzeWidth(%s): expected error", e)
		}
	}
}

func TestExplain(t *testing.T) {
	q := Compile(xq.MustParse(xmark.Q8), Options{})
	out := q.Explain()
	if !strings.Contains(out, "merge-join candidate") {
		t.Errorf("Explain missing merge-join note:\n%s", out)
	}
	if !strings.Contains(out, "nested loop") {
		t.Errorf("Explain missing nested-loop note (outer person loop):\n%s", out)
	}
}

// TestExplainLoopsFollowPlan checks that Explain's loop list is read off
// the compiled plan: over the whole XMark suite, the loops it calls
// merge-join candidates are exactly the for-merge-join nodes of the DI-MSJ
// operator tree it prints, and every other loop is a nested loop.
func TestExplainLoopsFollowPlan(t *testing.T) {
	for _, wq := range xmark.All {
		out := Compile(xq.MustParse(wq.Text), Options{}).Explain()
		loops, rest, _ := strings.Cut(out, "operator tree (DI-MSJ):\n")
		msjTree, nljTree, _ := strings.Cut(rest, "operator tree (DI-NLJ):\n")
		candidates := strings.Count(loops, ": merge-join candidate")
		if merges := strings.Count(msjTree, "for-merge-join"); candidates != merges {
			t.Errorf("%s: Explain lists %d merge-join candidates, the DI-MSJ plan has %d for-merge-join nodes\n%s",
				wq.Name, candidates, merges, out)
		}
		nested := strings.Count(loops, ": nested loop")
		if all := strings.Count(nljTree, "for-nested-loop"); candidates+nested != all {
			t.Errorf("%s: Explain lists %d loops, the DI-NLJ plan has %d\n%s", wq.Name, candidates+nested, all, out)
		}
	}
}

func TestWidthCondBranches(t *testing.T) {
	docs := map[string]*big.Int{"d": big.NewInt(10)}
	ok := []string{
		`for $x in document("d") where $x < "a" return $x`,
		`for $x in document("d") where contains($x, "a") return $x`,
		`for $x in document("d") where not($x = "a" or empty($x)) return $x`,
		`for $x at $i in document("d") where $i = "1" return $x`,
	}
	for _, q := range ok {
		if _, err := AnalyzeWidth(xq.MustParse(q), docs); err != nil {
			t.Errorf("%s: %v", q, err)
		}
	}
	bad := []string{
		`for $x in document("d") where $nope < $x return $x`,
		`for $x in document("d") where $x < $nope return $x`,
		`for $x in document("d") where contains($nope, $x) return $x`,
		`for $x in document("d") where contains($x, $nope) return $x`,
		`for $x in document("d") where empty($x) and empty($nope) return $x`,
		`for $x in document("d") where empty($nope) or empty($x) return $x`,
		`for $x in document("d") where empty($x) or empty($nope) return $x`,
	}
	for _, q := range bad {
		if _, err := AnalyzeWidth(xq.MustParse(q), docs); err == nil {
			t.Errorf("%s: expected error", q)
		}
	}
}

func TestPlanCondBranches(t *testing.T) {
	q := Compile(xq.MustParse(`for $x in document("d")/a
		where deep-less($x, $x) or contains($x, "g") and not(empty($x))
		return $x`), Options{})
	tree := q.Plan(Options{}).Tree()
	for _, want := range []string{"deep-compare(<)", "contains", "empty", "or", "and", "not"} {
		if !strings.Contains(tree, want) {
			t.Errorf("plan missing %s:\n%s", want, tree)
		}
	}
}

func TestRewriteCondBranches(t *testing.T) {
	// Pull-up must see through every condition form when deciding which
	// conjuncts reference let variables.
	e := xq.MustParse(`for $x in document("d")/a return
		for $y in document("d")/b
		let $z := $y/c
		where $x = $y and deep-less($z, $y) and contains($z, "k") and not(empty($z)) and (empty($z) or $z = "1")
		return $z`)
	r := PullUpJoinPredicates(e)
	inner := r.(xq.For).Body.(xq.For)
	w, ok := inner.Body.(xq.Where)
	if !ok {
		t.Fatalf("no pulled-up where: %s", inner.Body)
	}
	// Only the $x = $y conjunct is free of $z.
	if _, isEq := w.Cond.(xq.Equal); !isEq {
		t.Fatalf("pulled cond = %s", w.Cond)
	}
}

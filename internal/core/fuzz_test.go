package core

import (
	"context"
	"testing"

	"dixq/internal/interp"
	"dixq/internal/xmltree"
	"dixq/internal/xq"
)

// FuzzEndToEnd parses arbitrary query text and, when it parses, evaluates
// it on a small catalog with every engine under a tight budget: no panics,
// and the DI modes must agree with the interpreter whenever all three
// finish within budget.
func FuzzEndToEnd(f *testing.F) {
	seeds := []string{
		`document("d")/a/b/text()`,
		`for $x in document("d")/a return for $y in document("d")/a where $x = $y return <m>{$x}</m>`,
		`let $a := for $t in document("d")//b return $t where not(empty($a)) return count($a)`,
		`for $x at $i in document("d") order by $x descending return ($i, $x)`,
		`if (some $v in document("d") satisfies contains($v, "x")) then "y" else sort(document("d"))`,
		`declare function f($v) { $v/b }; f(document("d"))`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	doc, err := xmltree.Parse(`<a x="1"><b>t</b><b>u</b><c><b>t</b></c></a>`)
	if err != nil {
		f.Fatal(err)
	}
	cat := EncodeCatalog(map[string]xmltree.Forest{"d": doc})
	icat := interp.Catalog{"d": doc}

	f.Fuzz(func(t *testing.T, src string) {
		e, err := parseQuery(src)
		if err != nil {
			return
		}
		want, werr := interp.EvalBudget(context.Background(), e, nil, icat, 50_000)
		q := Compile(e, Options{})
		for _, mode := range []Mode{ModeMSJ, ModeNLJ} {
			got, gerr := q.EvalForest(cat, Options{ForceJoinMode: mode, MaxTuples: 200_000})
			if werr != nil || gerr != nil {
				continue // budget or semantic error paths; no agreement claim
			}
			if !got.Equal(want) {
				t.Fatalf("%s disagrees with interpreter on %q:\n got %s\nwant %s",
					mode, src, got.String(), want.String())
			}
		}
	})
}

func parseQuery(src string) (xq.Expr, error) { return xq.Parse(src) }

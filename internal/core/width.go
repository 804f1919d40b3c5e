package core

import (
	"fmt"
	"math/big"
	"strings"

	"dixq/internal/plan"
	"dixq/internal/xq"
)

// WidthAnalysis computes the compile-time width bounds of Section 4 for
// every subexpression: the w_XFn functions of 4.1 composed through the FLWR
// rules of 4.2 (w_let = w_body, w_where = w_body, w_for = w_e · w_e').
// Widths grow multiplicatively with loop nesting, which is why they are
// big.Int; the result justifies the paper's Section 4.3 observation that a
// fixed number of integer attributes, chosen at compile time, suffices —
// our digit-vector keys are exactly that allocation.
//
// docWidths supplies the width of each input document (2 · node count for
// the DFS-counter encoding). The analysis is also a static checker: it
// reports unbound variables and unknown functions without evaluating.
type WidthAnalysis struct {
	// Width is the bound on the result's interval endpoints.
	Width *big.Int
	// Digits is the number of key digits the evaluator will use for the
	// result's local positions (the attribute count of Section 4.3).
	Digits int
}

// AnalyzeWidth runs the width analysis over a core expression.
func AnalyzeWidth(e xq.Expr, docWidths map[string]*big.Int) (WidthAnalysis, error) {
	a := &widthAnalyzer{docs: docWidths, vars: map[string]WidthAnalysis{}}
	return a.expr(e)
}

type widthAnalyzer struct {
	docs map[string]*big.Int
	vars map[string]WidthAnalysis
}

func (a *widthAnalyzer) expr(e xq.Expr) (WidthAnalysis, error) {
	switch e := e.(type) {
	case xq.Var:
		w, ok := a.vars[e.Name]
		if !ok {
			return WidthAnalysis{}, fmt.Errorf("core: unbound variable $%s", e.Name)
		}
		return w, nil
	case xq.Doc:
		w, ok := a.docs[e.Name]
		if !ok {
			return WidthAnalysis{}, fmt.Errorf("core: unknown document %q", e.Name)
		}
		return WidthAnalysis{Width: new(big.Int).Set(w), Digits: 1}, nil
	case xq.Const:
		return WidthAnalysis{Width: big.NewInt(int64(2 * e.Value.Size())), Digits: 1}, nil
	case xq.Call:
		return a.call(e)
	case xq.Let:
		v, err := a.expr(e.Value)
		if err != nil {
			return WidthAnalysis{}, err
		}
		return a.withVar(e.Var, v, e.Body)
	case xq.Where:
		if err := a.cond(e.Cond); err != nil {
			return WidthAnalysis{}, err
		}
		return a.expr(e.Body)
	case xq.For:
		dom, err := a.expr(e.Domain)
		if err != nil {
			return WidthAnalysis{}, err
		}
		// Inside the loop the variable holds one tree of the domain.
		bodyExpr := e.Body
		if e.Pos != "" {
			// The positional variable is a single text node of width 2.
			var body WidthAnalysis
			body, err = a.withVar(e.Pos, WidthAnalysis{Width: big.NewInt(2), Digits: 1}, xq.For{Var: e.Var, Domain: e.Domain, Body: bodyExpr})
			return body, err
		}
		body, err := a.withVar(e.Var, dom, e.Body)
		if err != nil {
			return WidthAnalysis{}, err
		}
		// w_for = w_e · w_e'.
		return WidthAnalysis{
			Width:  new(big.Int).Mul(dom.Width, body.Width),
			Digits: dom.Digits + body.Digits,
		}, nil
	default:
		return WidthAnalysis{}, fmt.Errorf("core: unknown expression %T", e)
	}
}

func (a *widthAnalyzer) withVar(name string, w WidthAnalysis, body xq.Expr) (WidthAnalysis, error) {
	old, had := a.vars[name]
	a.vars[name] = w
	out, err := a.expr(body)
	if had {
		a.vars[name] = old
	} else {
		delete(a.vars, name)
	}
	return out, err
}

func (a *widthAnalyzer) call(e xq.Call) (WidthAnalysis, error) {
	args := make([]WidthAnalysis, len(e.Args))
	for i, arg := range e.Args {
		w, err := a.expr(arg)
		if err != nil {
			return WidthAnalysis{}, err
		}
		args[i] = w
	}
	two := big.NewInt(2)
	switch e.Fn {
	case xq.FnNode: // w + 2
		return WidthAnalysis{
			Width:  new(big.Int).Add(args[0].Width, two),
			Digits: max(1, args[0].Digits),
		}, nil
	case xq.FnConcat: // w1 + w2
		return WidthAnalysis{
			Width:  new(big.Int).Add(args[0].Width, args[1].Width),
			Digits: max(args[0].Digits, args[1].Digits),
		}, nil
	case xq.FnHead, xq.FnTail, xq.FnReverse, xq.FnDistinct, xq.FnSelect,
		xq.FnRoots, xq.FnChildren, xq.FnData, xq.FnSelText, xq.FnSort,
		xq.FnTake, xq.FnDrop, xq.FnOrdBy:
		d := args[0].Digits
		if e.Fn == xq.FnReverse || e.Fn == xq.FnSort || e.Fn == xq.FnOrdBy {
			d++ // renumbered with a position digit
		}
		return WidthAnalysis{Width: new(big.Int).Set(args[0].Width), Digits: d}, nil
	case xq.FnSubtreesDFS: // w²
		return WidthAnalysis{
			Width:  new(big.Int).Mul(args[0].Width, args[0].Width),
			Digits: args[0].Digits + 1,
		}, nil
	case xq.FnCount, xq.FnSum, xq.FnAvg, xq.FnMin, xq.FnMax:
		return WidthAnalysis{Width: two, Digits: 1}, nil
	case xq.FnArith:
		return WidthAnalysis{Width: two, Digits: 1}, nil
	default:
		return WidthAnalysis{}, fmt.Errorf("core: unknown function %q", e.Fn)
	}
}

func (a *widthAnalyzer) cond(c xq.Cond) error {
	switch c := c.(type) {
	case xq.Equal:
		if _, err := a.expr(c.L); err != nil {
			return err
		}
		_, err := a.expr(c.R)
		return err
	case xq.Less:
		if _, err := a.expr(c.L); err != nil {
			return err
		}
		_, err := a.expr(c.R)
		return err
	case xq.CmpVal:
		if _, err := a.expr(c.L); err != nil {
			return err
		}
		_, err := a.expr(c.R)
		return err
	case xq.Empty:
		_, err := a.expr(c.E)
		return err
	case xq.Contains:
		if _, err := a.expr(c.L); err != nil {
			return err
		}
		_, err := a.expr(c.R)
		return err
	case xq.Not:
		return a.cond(c.C)
	case xq.And:
		if err := a.cond(c.L); err != nil {
			return err
		}
		return a.cond(c.R)
	case xq.Or:
		if err := a.cond(c.L); err != nil {
			return err
		}
		return a.cond(c.R)
	default:
		return fmt.Errorf("core: unknown condition %T", c)
	}
}

// Explain renders a human-readable account of a compiled query: the
// rewritten expression, each for-loop's strategy as the DI-MSJ plan
// compiled it (a merge join where the loop's equality decorrelates, which
// makes it a candidate for DI-OPT too; a nested loop otherwise), and the
// DI-MSJ and DI-NLJ operator trees.
func (q *Query) Explain() string {
	msj := q.Plan(Options{ForceJoinMode: ModeMSJ})
	var b strings.Builder
	fmt.Fprintf(&b, "plan for:\n  %s\n", q.Original)
	fmt.Fprintf(&b, "rewritten:\n  %s\n", q.Expr)
	b.WriteString("loops:\n")
	plan.Walk(msj, func(n *plan.Node) {
		switch n.Op {
		case plan.OpMSJ:
			fmt.Fprintf(&b, "  for %s: merge-join candidate\n", n.Detail())
		case plan.OpBindVar:
			fmt.Fprintf(&b, "  for %s: nested loop\n", n.Detail())
		}
	})
	b.WriteString("operator tree (DI-MSJ):\n")
	indent(&b, msj.Tree())
	b.WriteString("operator tree (DI-NLJ):\n")
	indent(&b, q.Plan(Options{ForceJoinMode: ModeNLJ}).Tree())
	return b.String()
}

func indent(b *strings.Builder, s string) {
	for _, line := range strings.Split(strings.TrimRight(s, "\n"), "\n") {
		b.WriteString("  ")
		b.WriteString(line)
		b.WriteByte('\n')
	}
}

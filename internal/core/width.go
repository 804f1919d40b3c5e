package core

import (
	"fmt"
	"maps"
	"math/big"
	"strings"

	"dixq/internal/plan"
	"dixq/internal/xq"
)

// WidthAnalysis is the compile-time width bound of Section 4: the w_XFn
// functions of 4.1 composed through the FLWR rules of 4.2 (w_let = w_body,
// w_where = w_body, w_for = w_e · w_e'). Widths grow multiplicatively with
// loop nesting, which is why they are big.Int; the result justifies the
// paper's Section 4.3 observation that a fixed number of integer
// attributes, chosen at compile time, suffices — our digit-vector keys are
// exactly that allocation.
type WidthAnalysis struct {
	// Width is the bound on the result's interval endpoints.
	Width *big.Int
	// Digits is the number of key digits the evaluator will use for the
	// result's local positions (the attribute count of Section 4.3).
	Digits int
}

// AnalyzeWidth reads the width analysis off the literal nested-loop plan
// of a core expression, the rewrite-free plan the SQL translation also
// builds: Digits is the compiler's own inference at the plan root, and
// Width one walk over the plan's relation-valued nodes. docWidths supplies
// the width of each input document (2 · node count for the DFS-counter
// encoding). The analysis is also a static checker: it reports unknown
// functions, unbound variables and unknown documents without evaluating.
func AnalyzeWidth(e xq.Expr, docWidths map[string]*big.Int) (WidthAnalysis, error) {
	root := buildPlan(e, Options{ForceJoinMode: ModeNLJ})
	var err error
	plan.Walk(root, func(n *plan.Node) {
		if n.Op == plan.OpInvalid && err == nil {
			err = fmt.Errorf("core: %s", n.Label)
		}
	})
	if err != nil {
		return WidthAnalysis{}, err
	}
	unbound := "" // the least name, so the error is deterministic
	for name := range plan.FreeVars(root) {
		if !strings.HasPrefix(name, "doc:") && (unbound == "" || name < unbound) {
			unbound = name
		}
	}
	if unbound != "" {
		return WidthAnalysis{}, fmt.Errorf("core: unbound variable $%s", unbound)
	}
	for _, doc := range plan.Documents(root) {
		if docWidths[doc] == nil {
			return WidthAnalysis{}, fmt.Errorf("core: unknown document %q", doc)
		}
	}
	w := planWidth(root, docWidths, nil)
	return WidthAnalysis{Width: new(big.Int).Set(w), Digits: root.Digits}, nil
}

// planWidth is the width of a relation-valued plan node, with vars holding
// the widths of the variables in scope. It never mutates a width it did
// not allocate.
func planWidth(n *plan.Node, docs, vars map[string]*big.Int) *big.Int {
	in := func(i int) *big.Int { return planWidth(n.Inputs[i], docs, vars) }
	two := big.NewInt(2)
	switch n.Op {
	case plan.OpScan:
		return docs[n.Label]
	case plan.OpConst:
		return big.NewInt(int64(2 * n.Value.Size()))
	case plan.OpVar, plan.OpEmbedOuter:
		return vars[n.Label]
	case plan.OpLet:
		return planWidth(n.Inputs[1], docs, bindWidth(vars, n.Label, in(0)))
	case plan.OpFilter:
		return in(1)
	case plan.OpBindVar: // w_for = w_e · w_e'; the position is one text node
		dom := in(0)
		body := bindWidth(bindWidth(vars, n.Label, dom), n.Pos, two)
		return new(big.Int).Mul(dom, planWidth(n.Inputs[1], docs, body))
	case plan.OpConstruct: // w + 2
		return new(big.Int).Add(in(0), two)
	case plan.OpConcat: // w1 + w2
		return new(big.Int).Add(in(0), in(1))
	case plan.OpSubtreesDFS: // w²
		w := in(0)
		return new(big.Int).Mul(w, w)
	case plan.OpCount, plan.OpAggregate, plan.OpArith:
		return two
	default: // the order-preserving and reordering unary operators
		return in(0)
	}
}

// bindWidth returns vars extended by name ↦ w; the empty name (a loop
// without a positional variable) binds nothing.
func bindWidth(vars map[string]*big.Int, name string, w *big.Int) map[string]*big.Int {
	if name == "" {
		return vars
	}
	out := make(map[string]*big.Int, len(vars)+1)
	maps.Copy(out, vars)
	out[name] = w
	return out
}

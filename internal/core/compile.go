package core

import (
	"fmt"
	"sort"
	"strings"

	"dixq/internal/opt"
	"dixq/internal/plan"
	"dixq/internal/xq"
)

// buildPlan lowers a core expression into the physical plan the evaluator
// executes. The compiler mirrors the environment-depth analysis of §4.3
// (each binder records the static depth and digit width of its variable)
// and compiles every eligible loop to the §5 merge join unless ModeNLJ
// asks for the nested loop; the executor fuses every maximal chain of
// path operators into one streaming pass. Given statistics, the estimator
// then annotates every node with its statistics-fed row estimate.
func buildPlan(e xq.Expr, opts Options) *plan.Node {
	c := &compiler{opts: opts, depths: map[string]varInfo{}}
	root := c.expr(e, 0)
	// With structural indexes available, resolve depth-0 path chains against
	// the dataguide: chains over indexed paths become index range reads,
	// chains over absent paths collapse to empty plans (rewrite.go).
	if opts.Indexes != nil {
		root = applyIndexes(root, opts.Indexes)
	}
	// Est carries the statistics-fed row estimates; -1 marks nodes no
	// estimator saw, which render without one.
	plan.ResetEst(root)
	if opts.DocStats != nil {
		opt.Optimize(root, opts.DocStats)
	}
	plan.AssignIDs(root)
	return root
}

// compiler tracks the static environment state: for every visible
// variable, the depth it is bound at and its local digit width.
type compiler struct {
	opts   Options
	depths map[string]varInfo
}

type varInfo struct {
	depth  int
	digits int
}

func (c *compiler) with(name string, info varInfo, fn func() *plan.Node) *plan.Node {
	old, had := c.depths[name]
	c.depths[name] = info
	out := fn()
	if had {
		c.depths[name] = old
	} else {
		delete(c.depths, name)
	}
	return out
}

// expr compiles e at the given static environment depth.
func (c *compiler) expr(e xq.Expr, depth int) *plan.Node {
	switch e := e.(type) {
	case xq.Var:
		info, ok := c.depths[e.Name]
		if !ok {
			info = varInfo{digits: 1}
		}
		if ok && info.depth < depth {
			return &plan.Node{Op: plan.OpEmbedOuter, Label: e.Name,
				FromDepth: info.depth, Depth: depth, Digits: info.digits}
		}
		return &plan.Node{Op: plan.OpVar, Label: e.Name, Depth: depth, Digits: info.digits}
	case xq.Doc:
		return &plan.Node{Op: plan.OpScan, Label: e.Name, Depth: depth, Digits: 1}
	case xq.Const:
		return &plan.Node{Op: plan.OpConst, Value: e.Value, Depth: depth, Digits: 1}
	case xq.Call:
		return c.call(e, depth)
	case xq.Let:
		value := c.expr(e.Value, depth)
		body := c.with(e.Var, varInfo{depth: depth, digits: value.Digits},
			func() *plan.Node { return c.expr(e.Body, depth) })
		return &plan.Node{Op: plan.OpLet, Label: e.Var, Depth: depth,
			Digits: body.Digits, Inputs: []*plan.Node{value, body}}
	case xq.Where:
		cond := c.cond(e.Cond, depth)
		body := c.expr(e.Body, depth)
		return &plan.Node{Op: plan.OpFilter, Depth: depth, Digits: body.Digits,
			Inputs: []*plan.Node{cond, body}}
	case xq.For:
		return c.forLoop(e, depth)
	default:
		return &plan.Node{Op: plan.OpInvalid, Depth: depth,
			Label: fmt.Sprintf("unknown expression %T", e)}
	}
}

func (c *compiler) forLoop(e xq.For, depth int) *plan.Node {
	if c.opts.ForceJoinMode != ModeNLJ {
		if n, ok := c.mergeJoin(e, depth); ok {
			return n
		}
	}
	domain := c.expr(e.Domain, depth)
	newDepth := depth + domain.Digits
	body := c.withLoopVar(e, newDepth, domain,
		func() *plan.Node { return c.expr(e.Body, newDepth) })
	return &plan.Node{Op: plan.OpBindVar, Label: e.Var, Pos: e.Pos, Depth: depth,
		Digits: domain.Digits + body.Digits, Inputs: []*plan.Node{domain, body}}
}

// withLoopVar compiles fn with the loop variable (and its positional
// variable, if any) bound at the loop body's depth.
func (c *compiler) withLoopVar(e xq.For, atDepth int, domain *plan.Node, fn func() *plan.Node) *plan.Node {
	xInfo := varInfo{depth: atDepth, digits: domain.Digits}
	return c.with(e.Var, xInfo, func() *plan.Node {
		if e.Pos == "" {
			return fn()
		}
		return c.with(e.Pos, varInfo{depth: atDepth, digits: 1}, fn)
	})
}

// mergeJoin compiles a for-loop as the §5 decorrelated evaluation when
// the pattern applies: the domain resolves strictly above the current
// depth and the loop condition contains a separable comparison — an
// equality, a deep-less or a value <, one side using only the loop
// variable and what is bound at the domain's depth, the other avoiding
// the loop variable. An equality is preferred to an order. This is
// the static form of the check the evaluator used to repeat at runtime;
// the chosen plan records the domain's free variables so the executor can
// recompute the runtime invariance depth d0 (static and runtime depths
// can differ in magnitude on updated documents, but binder ordering
// agrees, so the strategy choice itself is safe at compile time).
func (c *compiler) mergeJoin(e xq.For, depth int) (*plan.Node, bool) {
	w, isWhere := e.Body.(xq.Where)
	if !isWhere {
		return nil, false
	}
	d0, resolvable := c.maxDepth(e.Domain)
	if !resolvable || d0 >= depth {
		return nil, false
	}
	conjuncts := flattenAnd(w.Cond)
	keyIdx := -1
	var outerKey, innerKey xq.Expr
	var cmp plan.Op
	var innerRight bool
	for i, cj := range conjuncts {
		l, r, op, ok := comparison(cj)
		if !ok || keyIdx >= 0 && op != plan.OpCmpEq {
			continue // an order is only kept until an equality turns up
		}
		switch {
		case c.isInner(l, e.Var, d0) && c.isOuter(r, e.Var):
			innerKey, outerKey, innerRight = l, r, false
		case c.isInner(r, e.Var, d0) && c.isOuter(l, e.Var):
			innerKey, outerKey, innerRight = r, l, op != plan.OpCmpEq
		default:
			continue
		}
		keyIdx, cmp = i, op
		if op == plan.OpCmpEq {
			break
		}
	}
	if keyIdx < 0 {
		return nil, false
	}

	// The domain runs once, in the ancestor environment at depth d0.
	domain := c.expr(e.Domain, d0)
	var domVars []string
	for name := range xq.FreeVars(e.Domain) {
		if !strings.HasPrefix(name, "doc:") {
			domVars = append(domVars, name)
		}
	}
	sort.Strings(domVars)

	// The inner key is evaluated on the candidate environments built at
	// depth d0 + domain width; the outer key on the current environments.
	yDepth := d0 + domain.Digits
	inner := c.withLoopVar(e, yDepth, domain,
		func() *plan.Node { return c.expr(innerKey, yDepth) })
	outer := c.expr(outerKey, depth)

	// Residual conjuncts become an ordinary conditional around the body.
	var residual xq.Cond
	for i, cj := range conjuncts {
		if i != keyIdx {
			residual = andWith(residual, cj)
		}
	}
	bodyExpr := w.Body
	if residual != nil {
		bodyExpr = xq.Where{Cond: residual, Body: w.Body}
	}
	newDepth := depth + domain.Digits
	body := c.withLoopVar(e, newDepth, domain,
		func() *plan.Node { return c.expr(bodyExpr, newDepth) })

	return &plan.Node{Op: plan.OpMSJ, Label: e.Var, Pos: e.Pos, Depth: depth,
		D0: d0, DomainVars: domVars, Cmp: cmp, InnerRight: innerRight,
		Digits: domain.Digits + body.Digits,
		Inputs: []*plan.Node{domain, outer, inner, body}}, true
}

// maxDepth returns the greatest static binding depth among an
// expression's free variables (documents are depth 0), or ok=false if
// some variable is unbound.
func (c *compiler) maxDepth(e xq.Expr) (int, bool) {
	depth := 0
	for name := range xq.FreeVars(e) {
		if strings.HasPrefix(name, "doc:") {
			continue
		}
		info, ok := c.depths[name]
		if !ok {
			return 0, false
		}
		if info.depth > depth {
			depth = info.depth
		}
	}
	return depth, true
}

// isInner reports whether an expression can serve as the inner join key:
// it uses the loop variable, and its remaining free variables are all
// visible at depth d0 or above.
func (c *compiler) isInner(e xq.Expr, loopVar string, d0 int) bool {
	free := xq.FreeVars(e)
	if !free[loopVar] {
		return false
	}
	for name := range free {
		if name == loopVar || strings.HasPrefix(name, "doc:") {
			continue
		}
		info, ok := c.depths[name]
		if !ok || info.depth > d0 {
			return false
		}
	}
	return true
}

// isOuter reports whether an expression can serve as the outer join key:
// it avoids the loop variable and all its free variables are bound.
func (c *compiler) isOuter(e xq.Expr, loopVar string) bool {
	free := xq.FreeVars(e)
	if free[loopVar] {
		return false
	}
	for name := range free {
		if strings.HasPrefix(name, "doc:") {
			continue
		}
		if _, ok := c.depths[name]; !ok {
			return false
		}
	}
	return true
}

func (c *compiler) call(e xq.Call, depth int) *plan.Node {
	args := make([]*plan.Node, len(e.Args))
	for i, a := range e.Args {
		args[i] = c.expr(a, depth)
	}
	in := func() *plan.Node { return args[0] }
	switch e.Fn {
	case xq.FnRoots:
		return &plan.Node{Op: plan.OpRoots, Depth: depth, Digits: in().Digits, Inputs: args}
	case xq.FnSelect:
		return &plan.Node{Op: plan.OpPathStep, Step: plan.StepSelect, Label: e.Label,
			Depth: depth, Digits: in().Digits, Inputs: args}
	case xq.FnSelText:
		return &plan.Node{Op: plan.OpPathStep, Step: plan.StepSelText, Depth: depth,
			Digits: in().Digits, Inputs: args}
	case xq.FnChildren:
		return &plan.Node{Op: plan.OpPathStep, Step: plan.StepChildren, Depth: depth,
			Digits: in().Digits, Inputs: args}
	case xq.FnData:
		return &plan.Node{Op: plan.OpPathStep, Step: plan.StepData, Depth: depth,
			Digits: in().Digits, Inputs: args}
	case xq.FnHead:
		return &plan.Node{Op: plan.OpPathStep, Step: plan.StepHead, Depth: depth,
			Digits: in().Digits, Inputs: args}
	case xq.FnTail:
		return &plan.Node{Op: plan.OpPathStep, Step: plan.StepTail, Depth: depth,
			Digits: in().Digits, Inputs: args}
	case xq.FnSort:
		return &plan.Node{Op: plan.OpStructuralSort, Depth: depth,
			Digits: in().Digits + 1, Inputs: args}
	case xq.FnReverse:
		return &plan.Node{Op: plan.OpReverse, Depth: depth, Digits: in().Digits + 1, Inputs: args}
	case xq.FnDistinct:
		return &plan.Node{Op: plan.OpDistinct, Depth: depth, Digits: in().Digits, Inputs: args}
	case xq.FnSubtreesDFS:
		return &plan.Node{Op: plan.OpSubtreesDFS, Depth: depth,
			Digits: in().Digits + 1, Inputs: args}
	case xq.FnNode:
		return &plan.Node{Op: plan.OpConstruct, Label: e.Label, Depth: depth,
			Digits: max(1, in().Digits), Inputs: args}
	case xq.FnConcat:
		return &plan.Node{Op: plan.OpConcat, Depth: depth,
			Digits: max(args[0].Digits, args[1].Digits), Inputs: args}
	case xq.FnCount:
		return &plan.Node{Op: plan.OpCount, Depth: depth, Digits: 1, Inputs: args}
	case xq.FnSum, xq.FnAvg, xq.FnMin, xq.FnMax:
		return &plan.Node{Op: plan.OpAggregate, Label: e.Fn, Depth: depth, Digits: 1, Inputs: args}
	case xq.FnArith:
		return &plan.Node{Op: plan.OpArith, Label: e.Label, Depth: depth, Digits: 1, Inputs: args}
	case xq.FnTake:
		return &plan.Node{Op: plan.OpTake, Label: e.Label, Depth: depth,
			Digits: in().Digits, Inputs: args}
	case xq.FnDrop:
		return &plan.Node{Op: plan.OpDrop, Label: e.Label, Depth: depth,
			Digits: in().Digits, Inputs: args}
	case xq.FnOrdBy:
		return &plan.Node{Op: plan.OpOrderBy, Label: e.Label, Depth: depth,
			Digits: in().Digits + 1, Inputs: args}
	default:
		return &plan.Node{Op: plan.OpInvalid, Depth: depth,
			Label: fmt.Sprintf("unknown function %q", e.Fn), Inputs: args}
	}
}

func (c *compiler) cond(cd xq.Cond, depth int) *plan.Node {
	node := func(op plan.Op, kids ...*plan.Node) *plan.Node {
		return &plan.Node{Op: op, Depth: depth, Inputs: kids}
	}
	if l, r, op, ok := comparison(cd); ok {
		return node(op, c.expr(l, depth), c.expr(r, depth))
	}
	switch cd := cd.(type) {
	case xq.Contains:
		return node(plan.OpContainsTest, c.expr(cd.L, depth), c.expr(cd.R, depth))
	case xq.Empty:
		return node(plan.OpEmptyTest, c.expr(cd.E, depth))
	case xq.Not:
		return node(plan.OpNot, c.cond(cd.C, depth))
	case xq.And:
		return node(plan.OpAnd, c.cond(cd.L, depth), c.cond(cd.R, depth))
	case xq.Or:
		return node(plan.OpOr, c.cond(cd.L, depth), c.cond(cd.R, depth))
	default:
		return &plan.Node{Op: plan.OpInvalid, Depth: depth,
			Label: fmt.Sprintf("unknown condition %T", cd)}
	}
}

// comparison splits a comparison condition into its operands and the
// predicate operator that evaluates it.
func comparison(cd xq.Cond) (l, r xq.Expr, op plan.Op, ok bool) {
	switch cd := cd.(type) {
	case xq.Equal:
		return cd.L, cd.R, plan.OpCmpEq, true
	case xq.Less:
		return cd.L, cd.R, plan.OpCmpLess, true
	case xq.CmpVal:
		return cd.L, cd.R, plan.OpCmpVal, true
	}
	return nil, nil, 0, false
}

package core

import (
	"fmt"
	"strings"

	"dixq/internal/index"
	"dixq/internal/plan"
	"dixq/internal/xmltree"
	"dixq/internal/xq"
)

// HoistInvariants lifts maximal subexpressions that depend only on input
// documents out of the expression into let bindings at the top, so that
// path extraction over a document runs once rather than once per loop
// iteration. Identical subexpressions share a single binding. The rewrite
// is semantics-preserving: the hoisted expressions are pure and total.
//
// This is the plan behaviour the paper's Figure 10 implies: even the
// DI-NLJ plan pays the path-extraction cost only once (a small, roughly
// constant fraction), while the join dominates.
func HoistInvariants(e xq.Expr) xq.Expr {
	h := &hoister{bindings: map[string]string{}}
	body := h.rewriteChildren(e)
	for i := len(h.order) - 1; i >= 0; i-- {
		body = xq.Let{Var: h.bindings[h.order[i]], Value: h.exprs[h.order[i]], Body: body}
	}
	return body
}

type hoister struct {
	bindings map[string]string // expression text -> generated variable
	exprs    map[string]xq.Expr
	order    []string
	n        int
}

// hoistable reports whether an expression depends only on documents.
func hoistable(e xq.Expr) bool {
	for name := range xq.FreeVars(e) {
		if !strings.HasPrefix(name, "doc:") {
			return false
		}
	}
	return true
}

// worthHoisting excludes the trivial cases where a binding buys nothing.
func worthHoisting(e xq.Expr) bool {
	switch e.(type) {
	case xq.Var, xq.Const:
		return false
	default:
		return true
	}
}

// rewrite replaces maximal hoistable subexpressions with fresh variables.
// The root expression itself is never replaced (hoisting the whole query
// would be pointless); rewriteChildren recurses past it.
func (h *hoister) rewrite(e xq.Expr) xq.Expr {
	if hoistable(e) && worthHoisting(e) {
		return xq.Var{Name: h.bind(e)}
	}
	return h.rewriteChildren(e)
}

func (h *hoister) rewriteChildren(e xq.Expr) xq.Expr {
	switch e := e.(type) {
	case xq.Var, xq.Doc, xq.Const:
		return e
	case xq.Call:
		args := make([]xq.Expr, len(e.Args))
		for i, a := range e.Args {
			args[i] = h.rewrite(a)
		}
		return xq.Call{Fn: e.Fn, Label: e.Label, Args: args}
	case xq.Let:
		return xq.Let{Var: e.Var, Value: h.rewrite(e.Value), Body: h.rewrite(e.Body)}
	case xq.For:
		return xq.For{Var: e.Var, Pos: e.Pos, Domain: h.rewrite(e.Domain), Body: h.rewrite(e.Body)}
	case xq.Where:
		return xq.Where{Cond: h.rewriteCond(e.Cond), Body: h.rewrite(e.Body)}
	default:
		panic(fmt.Sprintf("core: unknown expression %T", e))
	}
}

func (h *hoister) rewriteCond(c xq.Cond) xq.Cond {
	switch c := c.(type) {
	case xq.Equal:
		return xq.Equal{L: h.rewrite(c.L), R: h.rewrite(c.R)}
	case xq.Less:
		return xq.Less{L: h.rewrite(c.L), R: h.rewrite(c.R)}
	case xq.CmpVal:
		return xq.CmpVal{L: h.rewrite(c.L), R: h.rewrite(c.R)}
	case xq.Empty:
		return xq.Empty{E: h.rewrite(c.E)}
	case xq.Contains:
		return xq.Contains{L: h.rewrite(c.L), R: h.rewrite(c.R)}
	case xq.Not:
		return xq.Not{C: h.rewriteCond(c.C)}
	case xq.And:
		return xq.And{L: h.rewriteCond(c.L), R: h.rewriteCond(c.R)}
	case xq.Or:
		return xq.Or{L: h.rewriteCond(c.L), R: h.rewriteCond(c.R)}
	default:
		panic(fmt.Sprintf("core: unknown condition %T", c))
	}
}

func (h *hoister) bind(e xq.Expr) string {
	key := e.String()
	if name, ok := h.bindings[key]; ok {
		return name
	}
	h.n++
	name := fmt.Sprintf("#hoist%d", h.n)
	if h.exprs == nil {
		h.exprs = map[string]xq.Expr{}
	}
	h.bindings[key] = name
	h.exprs[key] = e
	h.order = append(h.order, key)
	return name
}

// PullUpJoinPredicates rewrites every for-loop body of the shape
//
//	let v1 := e1 ... let vn := en where C1 and ... and Ck return b
//
// by moving the conjuncts that do not reference any of the let variables in
// front of the lets:
//
//	where C_movable return let v1 := ... where C_rest return b
//
// The rewrite is semantics-preserving (the let values are pure and total)
// and exposes the "for x … for y … where p(x) = q(y)" shape the merge-join
// evaluation of Section 5 recognizes — including Q9's middle loop, whose
// join predicate sits under the let binding of the innermost loop.
func PullUpJoinPredicates(e xq.Expr) xq.Expr {
	switch e := e.(type) {
	case xq.Var, xq.Doc, xq.Const:
		return e
	case xq.Call:
		args := make([]xq.Expr, len(e.Args))
		for i, a := range e.Args {
			args[i] = PullUpJoinPredicates(a)
		}
		return xq.Call{Fn: e.Fn, Label: e.Label, Args: args}
	case xq.Let:
		return xq.Let{Var: e.Var, Value: PullUpJoinPredicates(e.Value), Body: PullUpJoinPredicates(e.Body)}
	case xq.For:
		return xq.For{Var: e.Var, Pos: e.Pos, Domain: PullUpJoinPredicates(e.Domain), Body: pullUpBody(PullUpJoinPredicates(e.Body))}
	case xq.Where:
		body := PullUpJoinPredicates(e.Body)
		cond := pullUpCond(e.Cond)
		// Adjacent conditionals merge into one conjunction, exposing all
		// conjuncts to the merge-join pattern at once.
		if inner, ok := body.(xq.Where); ok {
			return xq.Where{Cond: xq.And{L: cond, R: inner.Cond}, Body: inner.Body}
		}
		return xq.Where{Cond: cond, Body: body}
	default:
		panic(fmt.Sprintf("core: unknown expression %T", e))
	}
}

func pullUpCond(c xq.Cond) xq.Cond {
	switch c := c.(type) {
	case xq.Equal:
		return xq.Equal{L: PullUpJoinPredicates(c.L), R: PullUpJoinPredicates(c.R)}
	case xq.Less:
		return xq.Less{L: PullUpJoinPredicates(c.L), R: PullUpJoinPredicates(c.R)}
	case xq.CmpVal:
		return xq.CmpVal{L: PullUpJoinPredicates(c.L), R: PullUpJoinPredicates(c.R)}
	case xq.Empty:
		return xq.Empty{E: PullUpJoinPredicates(c.E)}
	case xq.Contains:
		return xq.Contains{L: PullUpJoinPredicates(c.L), R: PullUpJoinPredicates(c.R)}
	case xq.Not:
		return xq.Not{C: pullUpCond(c.C)}
	case xq.And:
		return xq.And{L: pullUpCond(c.L), R: pullUpCond(c.R)}
	case xq.Or:
		return xq.Or{L: pullUpCond(c.L), R: pullUpCond(c.R)}
	default:
		panic(fmt.Sprintf("core: unknown condition %T", c))
	}
}

// pullUpBody hoists let-independent conjuncts of a let-chain's final where
// clause in front of the chain.
func pullUpBody(body xq.Expr) xq.Expr {
	var lets []xq.Let
	cur := body
	for {
		l, ok := cur.(xq.Let)
		if !ok {
			break
		}
		lets = append(lets, l)
		cur = l.Body
	}
	w, ok := cur.(xq.Where)
	if !ok || len(lets) == 0 {
		return body
	}
	letVars := map[string]bool{}
	for _, l := range lets {
		letVars[l.Var] = true
	}
	movable, rest := splitConjuncts(w.Cond, letVars)
	if movable == nil {
		return body
	}
	inner := w.Body
	if rest != nil {
		inner = xq.Where{Cond: rest, Body: inner}
	}
	for i := len(lets) - 1; i >= 0; i-- {
		inner = xq.Let{Var: lets[i].Var, Value: lets[i].Value, Body: inner}
	}
	return xq.Where{Cond: movable, Body: inner}
}

// splitConjuncts partitions a conjunction into the parts that avoid the
// given variables and the rest; either part may be nil.
func splitConjuncts(c xq.Cond, avoid map[string]bool) (movable, rest xq.Cond) {
	conjuncts := flattenAnd(c)
	for _, conj := range conjuncts {
		if condUsesAny(conj, avoid) {
			rest = andWith(rest, conj)
		} else {
			movable = andWith(movable, conj)
		}
	}
	return movable, rest
}

func flattenAnd(c xq.Cond) []xq.Cond {
	if a, ok := c.(xq.And); ok {
		return append(flattenAnd(a.L), flattenAnd(a.R)...)
	}
	return []xq.Cond{c}
}

func andWith(acc, c xq.Cond) xq.Cond {
	if acc == nil {
		return c
	}
	return xq.And{L: acc, R: c}
}

func condUsesAny(c xq.Cond, vars map[string]bool) bool {
	used := map[string]bool{}
	collectCondVars(c, used)
	for v := range vars {
		if used[v] {
			return true
		}
	}
	return false
}

func collectCondVars(c xq.Cond, out map[string]bool) {
	switch c := c.(type) {
	case xq.Equal:
		addFree(c.L, out)
		addFree(c.R, out)
	case xq.Less:
		addFree(c.L, out)
		addFree(c.R, out)
	case xq.CmpVal:
		addFree(c.L, out)
		addFree(c.R, out)
	case xq.Empty:
		addFree(c.E, out)
	case xq.Contains:
		addFree(c.L, out)
		addFree(c.R, out)
	case xq.Not:
		collectCondVars(c.C, out)
	case xq.And:
		collectCondVars(c.L, out)
		collectCondVars(c.R, out)
	case xq.Or:
		collectCondVars(c.L, out)
		collectCondVars(c.R, out)
	}
}

func addFree(e xq.Expr, out map[string]bool) {
	for v := range xq.FreeVars(e) {
		out[v] = true
	}
}

// applyIndexes is the access-path phase of compilation: with structural
// indexes available (Options.Indexes), every path chain rooted at a scan
// of an indexed document is resolved against that document's dataguide
// (see internal/index). Two rewrites apply:
//
//   - seek (form a): the maximal absorbable prefix of the chain — select,
//     seltext, children, roots, and one subtrees-dfs directly followed by
//     a select or seltext — resolves to exact row ranges, and the prefix
//     is replaced by an OpIndexPath node that serves those ranges
//     directly.
//   - prune (form b): a select whose element/attribute label appears
//     nowhere in the document can only produce the empty forest, even
//     through non-absorbable steps (subtrees-dfs, head, tail), because all
//     of those only subset or preserve the document's labels. The whole
//     chain collapses to a pruned OpIndexPath.
//
// The replaced operators leave the plan: a seek runs only over the
// relation it was resolved against, and the executor reports any other
// binding as an error. DESIGN.md §4.11 gives the soundness argument for
// both forms.
func applyIndexes(n *plan.Node, set *index.Set) *plan.Node {
	if n.Op == plan.OpRoots || n.Op == plan.OpPathStep {
		return rewriteChain(n, set)
	}
	for i, c := range n.Inputs {
		n.Inputs[i] = applyIndexes(c, set)
	}
	return n
}

// inChain reports whether a node continues a path chain: the path steps,
// and subtrees-dfs, which preserves labels and which the resolver absorbs
// together with the select after it.
func inChain(n *plan.Node) bool {
	return n.Op == plan.OpRoots || n.Op == plan.OpPathStep || n.Op == plan.OpSubtreesDFS
}

// rewriteChain applies the two index rewrites to a maximal path chain.
func rewriteChain(head *plan.Node, set *index.Set) *plan.Node {
	var chain []*plan.Node
	for cur := head; inChain(cur); cur = cur.Inputs[0] {
		chain = append(chain, cur)
	}
	bottom := chain[len(chain)-1]
	bottom.Inputs[0] = applyIndexes(bottom.Inputs[0], set)
	src := bottom.Inputs[0]
	// A document scan is loop-invariant at any depth (documents never
	// depend on loop variables), so chains rooted at scans inside loops
	// (Depth >= 1) resolve too: the executor serves the ranges once and
	// embeds them into the current environments, exactly as the
	// scan-backed chain would embed its source document.
	if src.Op == plan.OpScan {
		if ix := set.Docs[src.Label]; ix != nil {
			n, absorbed := absorbChain(head, chain, src, ix)
			if n != nil {
				return n
			}
			// The unabsorbed rest of the chain runs over the seek; its
			// selects can still prove it empty.
			chain = chain[:len(chain)-absorbed]
		}
	}
	if n := pruneAbsent(head, chain, set); n != nil {
		return n
	}
	return head
}

// absorbStep maps a chain node to its dataguide step, reporting false for
// the steps the resolver cannot absorb (data, head, tail).
func absorbStep(n *plan.Node) (index.Step, bool) {
	switch {
	case n.Op == plan.OpRoots:
		return index.Step{Kind: index.StepRoots}, true
	case n.Op == plan.OpSubtreesDFS:
		return index.Step{Kind: index.StepDescendant}, true
	case n.Op == plan.OpPathStep && n.Step == plan.StepSelect:
		return index.Step{Kind: index.StepSelect, Label: n.Label}, true
	case n.Op == plan.OpPathStep && n.Step == plan.StepSelText:
		return index.Step{Kind: index.StepSelText}, true
	case n.Op == plan.OpPathStep && n.Step == plan.StepChildren:
		return index.Step{Kind: index.StepChildren}, true
	}
	return index.Step{}, false
}

// keepsClasses reports whether a chain's answer is still the instance set
// of dataguide classes: after head, tail or subtrees-dfs no class set
// describes it.
func keepsClasses(chain []*plan.Node) bool {
	for _, c := range chain {
		if c.Op == plan.OpSubtreesDFS || c.Step == plan.StepHead || c.Step == plan.StepTail {
			return false
		}
	}
	return true
}

// widening counts the subtrees-dfs operators of a chain: each adds one
// digit to the local key width of everything above it.
func widening(chain []*plan.Node) int {
	n := 0
	for _, c := range chain {
		if c.Op == plan.OpSubtreesDFS {
			n++
		}
	}
	return n
}

// absorbChain is form (a): resolve the maximal absorbable prefix of the
// chain (in execution order, from the scan upward) against the dataguide.
// It returns the node replacing the whole chain when the chain was
// absorbed entirely or proven empty; otherwise nil and the number of
// steps absorbed (0 when nothing was), with the seek spliced in below the
// rest.
func absorbChain(head *plan.Node, chain []*plan.Node, src *plan.Node, ix *index.DocIndex) (*plan.Node, int) {
	var steps []index.Step
	for i := len(chain) - 1; i >= 0; i-- {
		st, ok := absorbStep(chain[i])
		if !ok {
			break
		}
		steps = append(steps, st)
	}
	if len(steps) == 0 {
		return nil, 0
	}
	res := ix.Resolve(steps)
	steps = steps[:res.Consumed]
	if res.Pruned {
		// The resolved prefix is empty, and every remaining chain step
		// preserves emptiness, so the whole chain is.
		return prunedNode(head, src.Label, ix, widening(chain), renderPath(steps), keepsClasses(chain)), 0
	}
	absorbed := res.Consumed
	if absorbed == 0 {
		return nil, 0
	}
	ipn := &plan.Node{
		Op:     plan.OpIndexPath,
		Depth:  src.Depth,
		Digits: chain[len(chain)-absorbed].Digits,
		Seek: &plan.Seek{Doc: src.Label, Path: renderPath(steps), Rel: ix.Rel,
			Ranges: res.Ranges, Pos: res.Pos, Rows: res.Rows,
			Classes: res.Classes, Roots: res.Roots,
			WidenBy: widening(chain[len(chain)-absorbed:])},
	}
	if absorbed == len(chain) {
		return ipn, absorbed
	}
	chain[len(chain)-absorbed-1].Inputs[0] = ipn
	return nil, absorbed
}

// pruneAbsent is form (b): given a chain over a document scan or a seek,
// prune the chain if any of its selects names an element/attribute label
// absent from that document. The pruned node reports the local key width
// the chain's (empty) output would have: the source's widening plus the
// chain's own subtrees-dfs operators.
func pruneAbsent(head *plan.Node, chain []*plan.Node, set *index.Set) *plan.Node {
	widen := widening(chain)
	classes := keepsClasses(chain)
	var doc string
	switch src := chain[len(chain)-1].Inputs[0]; src.Op {
	case plan.OpScan:
		doc = src.Label
	case plan.OpIndexPath:
		doc = src.Seek.Doc
		widen += src.Seek.WidenBy
		classes = classes && src.Seek.Classes != nil
	default:
		return nil
	}
	ix := set.Docs[doc]
	if ix == nil {
		return nil
	}
	dataSeen := false
	for i := len(chain) - 1; i >= 0; i-- {
		n := chain[i]
		if n.Op == plan.OpPathStep && n.Step == plan.StepData {
			// data() manufactures new text labels, so labels above it are
			// not the document's; every other step only subsets them.
			dataSeen = true
		}
		if dataSeen {
			continue
		}
		if n.Op == plan.OpPathStep && n.Step == plan.StepSelect &&
			xmltree.LabelKind(n.Label) != xmltree.Text && !ix.HasLabel(n.Label) {
			return prunedNode(head, doc, ix, widen, "//"+trimLabel(n.Label), classes)
		}
	}
	return nil
}

// prunedNode replaces a chain proven empty. Its seek has the empty class
// set when the chain kept class provenance (see plan.Seek.Classes).
func prunedNode(head *plan.Node, doc string, ix *index.DocIndex, widen int, path string, classes bool) *plan.Node {
	sk := &plan.Seek{Doc: doc, Path: path, Rel: ix.Rel, Pruned: true, WidenBy: widen}
	if classes {
		sk.Classes = []string{}
	}
	return &plan.Node{Op: plan.OpIndexPath, Depth: head.Depth, Digits: head.Digits, Seek: sk}
}

// renderPath renders an absorbed step chain for Explain. sep is the axis
// the next select or seltext renders with: a descendant step over child
// steps (or over the document) is XPath's "//"; over the current nodes
// themselves it is descendant-or-self.
func renderPath(steps []index.Step) string {
	var b strings.Builder
	pendingChild := false
	sep := "/"
	flush := func() {
		if pendingChild {
			b.WriteString("/*")
			pendingChild = false
		}
	}
	for _, st := range steps {
		switch st.Kind {
		case index.StepChildren:
			flush()
			pendingChild = true
		case index.StepDescendant:
			sep = "/descendant-or-self::"
			if pendingChild || b.Len() == 0 {
				sep = "//"
			}
			pendingChild = false
		case index.StepSelect:
			pendingChild = false
			b.WriteString(sep)
			b.WriteString(trimLabel(st.Label))
			sep = "/"
		case index.StepSelText:
			pendingChild = false
			b.WriteString(sep)
			b.WriteString("text()")
			sep = "/"
		case index.StepRoots:
			flush()
			b.WriteString("!roots")
		}
	}
	flush()
	return b.String()
}

func trimLabel(label string) string {
	switch xmltree.LabelKind(label) {
	case xmltree.Element:
		return label[1 : len(label)-1]
	default:
		return label
	}
}

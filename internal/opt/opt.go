// Package opt is the cost-based plan optimizer: it takes a compiled
// physical plan (internal/plan) and real per-document statistics
// (internal/stats), extracts the join graph — structural joins, value
// joins, and path-chain seeks as base access paths — costs the per-loop
// algorithm alternatives (merge join vs nested loop) and join orderings,
// and rewrites the plan to the cheaper shape.
//
// The optimizer only applies transformations that are proven
// digit-identical: an OpMSJ loop (the §5 decorrelated evaluation) may be
// demoted to the literal OpBindVar + equality-filter translation, because
// execution is environment-driven — static depth annotations are advisory
// and both shapes produce identical encodings (the property the difftest
// matrix and FuzzOptimizedExecute pin). Join orderings are costed and
// reported but never realized: XQuery's sequence semantics make the
// output order of nested for-loops observable, so reordering loops would
// change results. The Report records both the syntactic order and the
// cheapest order found, so the gap is visible in /explain even though the
// rewrite is pinned. See DESIGN.md §4.12 for the cost model and the
// soundness argument.
//
// Every estimated node carries its stats-fed row estimate in Node.Est,
// which the analyzed plan renders beside the actual row count, so
// misestimates are visible per operator end to end.
package opt

import (
	"math"
	"strings"

	"dixq/internal/obs"
	"dixq/internal/plan"
	"dixq/internal/stats"
)

// Cost-model constants. Costs are in abstract row-touch units: reading,
// materializing or comparing one tuple costs about 1. The constants only
// need to rank alternatives, not predict wall time.
const (
	// sortFactor scales the n·log n term of the merge join's two
	// structural sorts.
	sortFactor = 1.5
	// sortSetup is the flat overhead of setting up a merge join (sort
	// state, key extraction, environment rebuild); it is what makes the
	// nested loop win on very small inputs.
	sortSetup = 256.0
	// defaultEqSel is the equality selectivity assumed when neither side
	// resolves to a text path with distinct-value statistics.
	defaultEqSel = 0.1
	// defaultCondSel is the selectivity of a non-equality condition.
	defaultCondSel = 0.5
	// nominalDocTuples is the document size assumed for a document without
	// statistics.
	nominalDocTuples = 1000
	// maxOrderVertices bounds the exhaustive join-order search.
	maxOrderVertices = 6
)

// Optimize estimates and rewrites a compiled plan against the given
// statistics (nil st degrades every estimate to a nominal document). It
// returns the optimized root — the input tree, mutated and possibly
// restructured — and the report of every decision taken. The
// caller must re-run plan.AssignIDs afterwards; Optimize does so itself
// before filling the report's node IDs, so the IDs it reports are final.
func Optimize(root *plan.Node, st *stats.Set) (*plan.Node, *Report) {
	o := &optimizer{
		st:     st,
		vars:   map[string]varEst{},
		report: &Report{},
		envs:   []depthEnvs{{depth: 0, envs: 1}},
	}
	obs.OptPlans.Inc()
	o.est(root, 1, true)
	plan.AssignIDs(root)
	for i := range o.report.Decisions {
		if n := o.decisionNodes[i]; n != nil {
			o.report.Decisions[i].NodeID = n.ID
		}
	}
	for i := range o.report.Graph.Vertices {
		if n := o.vertexNodes[i]; n != nil {
			o.report.Graph.Vertices[i].NodeID = n.ID
		}
	}
	o.orderSearch()
	return root, o.report
}

// optimizer carries the estimation state of one Optimize call.
type optimizer struct {
	st   *stats.Set
	vars map[string]varEst
	// envs is the stack of (static depth, estimated environment count)
	// pairs pushed at loop entries; envsAt walks it to recover the
	// environment count of an ancestor depth (the OpMSJ domain depth D0).
	envs []depthEnvs
	// cost accumulates the row-touch cost of everything estimated so far;
	// branch costing snapshots and restores it.
	cost float64

	report        *Report
	decisionNodes []*plan.Node
	vertexNodes   []*plan.Node
}

type depthEnvs struct {
	depth int
	envs  float64
}

// varEst is the estimator's view of one variable binding.
type varEst struct {
	// perEnvRows is the average materialized rows per environment.
	perEnvRows float64
	// perEnvCount is the average top-level tree count per environment.
	perEnvCount float64
	prov        *prov
}

// prov tracks the dataguide provenance of a doc-rooted value: which
// classes its top-level trees instantiate, with scaled instance counts
// and subtree rows. It powers exact chain estimates and distinct-value
// selectivities for value joins.
type prov struct {
	doc    string
	vertex int // join-graph vertex of the backing access path, -1 if none
	// counts and rows are per class path, scaled by upstream selectivity
	// (so they are totals across all current environments of one env).
	paths map[string]provPath
}

type provPath struct {
	count float64
	rows  float64
}

func (p *prov) total() (count, rows float64) {
	if p == nil {
		return 0, 0
	}
	for _, pp := range p.paths {
		count += pp.count
		rows += pp.rows
	}
	return count, rows
}

func (o *optimizer) doc(name string) *stats.DocStats { return o.st.Doc(name) }

func (o *optimizer) envsAt(depth int) float64 {
	for i := len(o.envs) - 1; i >= 0; i-- {
		if o.envs[i].depth <= depth {
			return o.envs[i].envs
		}
	}
	return 1
}

// withVar runs fn with a variable bound, restoring the previous binding
// after — the estimator's mirror of the compiler's scope tracking.
func (o *optimizer) withVar(name string, ve varEst, fn func()) {
	old, had := o.vars[name]
	o.vars[name] = ve
	fn()
	if had {
		o.vars[name] = old
	} else {
		delete(o.vars, name)
	}
}

func (o *optimizer) withLoopVars(n *plan.Node, ve varEst, fn func()) {
	o.withVar(n.Label, ve, func() {
		if n.Pos == "" {
			fn()
			return
		}
		o.withVar(n.Pos, varEst{perEnvRows: 1, perEnvCount: 1}, fn)
	})
}

// annotateEst stores a row estimate on a node, clamped to int64.
func annotateEst(n *plan.Node, rows float64) {
	switch {
	case rows < 0 || math.IsNaN(rows):
		n.Est = 0
	case rows > math.MaxInt64/2:
		n.Est = math.MaxInt64 / 2
	default:
		n.Est = int64(math.Round(rows))
	}
}

// est estimates one node at the given environment count, accumulating
// cost; when annotate is set it also writes Node.Est. It returns total
// rows, total top-level tree count, and the dataguide provenance (nil
// when the value is not doc-rooted or tracking was lost).
func (o *optimizer) est(n *plan.Node, envs float64, annotate bool) (rows, count float64, pv *prov) {
	defer func() {
		o.cost += rows
		if annotate {
			annotateEst(n, rows)
		}
	}()

	switch n.Op {
	case plan.OpScan:
		pv = o.scanProv(n.Label, annotate, n)
		c, r := pv.total()
		return envs * r, envs * c, pv

	case plan.OpConst:
		rows := float64(2 * n.Value.Size())
		return envs * rows, envs * float64(len(n.Value)), nil

	case plan.OpVar, plan.OpEmbedOuter:
		ve, ok := o.vars[n.Label]
		if !ok {
			ve = varEst{perEnvRows: nominalDocTuples, perEnvCount: nominalDocTuples / 2}
		}
		return envs * ve.perEnvRows, envs * ve.perEnvCount, ve.prov

	case plan.OpLet:
		vRows, vCount, vProv := o.est(n.Inputs[0], envs, annotate)
		var bRows, bCount float64
		var bProv *prov
		o.withVar(n.Label, varEst{perEnvRows: safeDiv(vRows, envs), perEnvCount: safeDiv(vCount, envs), prov: vProv}, func() {
			bRows, bCount, bProv = o.est(n.Inputs[1], envs, annotate)
		})
		return bRows, bCount, bProv

	case plan.OpFilter:
		sel := o.selectivity(n.Inputs[0], envs, annotate)
		bRows, bCount, bProv := o.est(n.Inputs[1], envs*sel, annotate)
		return bRows, bCount, scaleProv(bProv, sel)

	case plan.OpBindVar:
		return o.estBindVar(n, envs, annotate)

	case plan.OpMSJ:
		return o.estMSJ(n, envs, annotate)

	case plan.OpIndexPath:
		return o.estIndexPath(n, envs, annotate)

	case plan.OpRoots:
		inRows, inCount, inProv := o.est(n.Inputs[0], envs, annotate)
		_ = inRows
		return inCount, inCount, singletonProv(inProv)

	case plan.OpPathStep:
		return o.estPathStep(n, envs, annotate)

	case plan.OpStructuralSort, plan.OpReverse:
		inRows, inCount, inProv := o.est(n.Inputs[0], envs, annotate)
		return inRows, inCount, inProv

	case plan.OpDistinct:
		inRows, inCount, inProv := o.est(n.Inputs[0], envs, annotate)
		return inRows/2 + 1, inCount/2 + 1, scaleProv(inProv, 0.5)

	case plan.OpSubtreesDFS:
		inRows, _, _ := o.est(n.Inputs[0], envs, annotate)
		return 3 * inRows, inRows, nil

	case plan.OpConstruct:
		inRows, _, _ := o.est(n.Inputs[0], envs, annotate)
		return inRows + 2*envs, envs, nil

	case plan.OpConcat:
		aRows, aCount, _ := o.est(n.Inputs[0], envs, annotate)
		bRows, bCount, _ := o.est(n.Inputs[1], envs, annotate)
		return aRows + bRows, aCount + bCount, nil

	case plan.OpCount, plan.OpAggregate:
		o.est(n.Inputs[0], envs, annotate)
		return 2 * envs, envs, nil

	case plan.OpArith:
		o.est(n.Inputs[0], envs, annotate)
		o.est(n.Inputs[1], envs, annotate)
		return 2 * envs, envs, nil

	case plan.OpTake, plan.OpDrop:
		inRows, inCount, _ := o.est(n.Inputs[0], envs, annotate)
		return inRows/2 + 1, inCount/2 + 1, nil

	case plan.OpOrderBy:
		inRows, inCount, inProv := o.est(n.Inputs[0], envs, annotate)
		return inRows, inCount, inProv

	default:
		// Predicates are estimated through selectivity; anything else
		// (OpInvalid) contributes nothing.
		for _, c := range n.Inputs {
			o.est(c, envs, annotate)
		}
		return 0, 0, nil
	}
}

// scanProv builds the provenance of a document scan: every top-level
// dataguide class with its statistics, and a join-graph vertex for the
// access path.
func (o *optimizer) scanProv(doc string, addVertex bool, node *plan.Node) *prov {
	pv := &prov{doc: doc, vertex: -1, paths: map[string]provPath{}}
	if ds := o.doc(doc); ds != nil {
		for p, ps := range ds.Paths {
			if strings.Count(p, "/") == 1 { // top-level class
				pv.paths[p] = provPath{count: float64(ps.Count), rows: float64(ps.SubtreeRows)}
			}
		}
	} else {
		pv.paths["/?"] = provPath{count: 1, rows: nominalDocTuples}
	}
	if addVertex && node != nil {
		pv.vertex = o.addVertex(node, pv)
	}
	return pv
}

func scaleProv(p *prov, f float64) *prov {
	if p == nil {
		return nil
	}
	out := &prov{doc: p.doc, vertex: p.vertex, paths: make(map[string]provPath, len(p.paths))}
	for k, v := range p.paths {
		out.paths[k] = provPath{count: v.count * f, rows: v.rows * f}
	}
	return out
}

// singletonProv is provenance after roots(): same classes, but each
// instance is a bare node, so subtree rows collapse to the count.
func singletonProv(p *prov) *prov {
	if p == nil {
		return nil
	}
	out := &prov{doc: p.doc, vertex: p.vertex, paths: make(map[string]provPath, len(p.paths))}
	for k, v := range p.paths {
		out.paths[k] = provPath{count: v.count, rows: v.count}
	}
	return out
}

// instanceProv is the provenance of a loop variable: one instance of the
// domain's classes per environment, scaled to per-instance weights.
func instanceProv(p *prov, totalCount float64) *prov {
	if p == nil || totalCount <= 0 {
		return nil
	}
	return scaleProv(p, 1/totalCount)
}

// lastSegment returns the final "/"-separated segment of a class path.
func lastSegment(p string) string {
	if i := strings.LastIndex(p, "/"); i >= 0 {
		return p[i+1:]
	}
	return p
}

// estPathStep estimates one path operator, tracking dataguide provenance
// through select/seltext/children/data chains for exact counts.
func (o *optimizer) estPathStep(n *plan.Node, envs float64, annotate bool) (float64, float64, *prov) {
	inRows, inCount, inProv := o.est(n.Inputs[0], envs, annotate)
	ds := (*stats.DocStats)(nil)
	if inProv != nil {
		ds = o.doc(inProv.doc)
	}
	if inProv == nil || ds == nil {
		// No provenance: fall back to the compiler's shape heuristics.
		switch n.Step {
		case plan.StepSelect, plan.StepSelText:
			return inRows/4 + 1, inCount/4 + 1, nil
		case plan.StepChildren:
			return inRows, inCount, nil
		case plan.StepData:
			return inRows/2 + 1, inCount/2 + 1, nil
		default: // head, tail
			return inRows/2 + 1, inCount/2 + 1, nil
		}
	}
	switch n.Step {
	case plan.StepSelect:
		out := filterProv(inProv, n.Label)
		c, r := out.total()
		return r, c, out
	case plan.StepSelText:
		out := filterProv(inProv, "#text")
		c, r := out.total()
		return r, c, out
	case plan.StepChildren:
		out := childrenProv(inProv, ds)
		c, r := out.total()
		return r, c, out
	case plan.StepData:
		out := childrenProv(inProv, ds)
		out = filterProv(out, "#text")
		c, r := out.total()
		return r, c, out
	case plan.StepHead, plan.StepTail:
		// Keeps at most one (resp. all but one) tree per environment;
		// provenance fractions stop being meaningful.
		return inRows/2 + 1, math.Min(inCount, envs), nil
	}
	return inRows, inCount, nil
}

// filterProv keeps the classes whose own label matches (select /
// seltext semantics over the dataguide).
func filterProv(p *prov, label string) *prov {
	out := &prov{doc: p.doc, vertex: p.vertex, paths: map[string]provPath{}}
	for k, v := range p.paths {
		if lastSegment(k) == label {
			out.paths[k] = v
		}
	}
	return out
}

// childrenProv replaces each class by its child classes, scaling child
// counts by the fraction of parent instances present.
func childrenProv(p *prov, ds *stats.DocStats) *prov {
	out := &prov{doc: p.doc, vertex: p.vertex, paths: map[string]provPath{}}
	for parent, pv := range p.paths {
		base := ds.Paths[parent]
		if base.Count == 0 {
			continue
		}
		frac := pv.count / float64(base.Count)
		prefix := parent + "/"
		for k, ks := range ds.Paths {
			if !strings.HasPrefix(k, prefix) || strings.Contains(k[len(prefix):], "/") {
				continue
			}
			pp := out.paths[k]
			pp.count += float64(ks.Count) * frac
			pp.rows += float64(ks.SubtreeRows) * frac
			out.paths[k] = pp
		}
	}
	return out
}

// distinctOf returns the distinct-value count of a provenance that
// resolves to text classes, or 0 when unknown.
func (o *optimizer) distinctOf(p *prov) float64 {
	if p == nil {
		return 0
	}
	ds := o.doc(p.doc)
	if ds == nil {
		return 0
	}
	var d float64
	for k := range p.paths {
		if lastSegment(k) != "#text" {
			// Element content: its string value is still its text
			// descendants; approximate with the direct text child class.
			if ts, ok := ds.Paths[k+"/#text"]; ok {
				d += float64(ts.DistinctText)
			}
			continue
		}
		d += float64(ds.Paths[k].DistinctText)
	}
	return d
}

// selectivity estimates the pass fraction of a predicate node and
// accumulates the cost of evaluating it (its expression children are
// estimated at the given environment count). Value-join equalities over
// text paths use 1/max(distinct) from the statistics; everything else
// falls back to fixed defaults.
func (o *optimizer) selectivity(n *plan.Node, envs float64, annotate bool) float64 {
	if annotate {
		// A predicate produces one verdict per environment.
		annotateEst(n, envs)
	}
	switch n.Op {
	case plan.OpCmpEq:
		_, _, lp := o.est(n.Inputs[0], envs, annotate)
		_, _, rp := o.est(n.Inputs[1], envs, annotate)
		return o.keySelectivity(plan.OpCmpEq, lp, rp, true)
	case plan.OpCmpLess, plan.OpCmpVal, plan.OpContainsTest:
		o.est(n.Inputs[0], envs, annotate)
		o.est(n.Inputs[1], envs, annotate)
		return defaultCondSel
	case plan.OpEmptyTest:
		o.est(n.Inputs[0], envs, annotate)
		return defaultCondSel
	case plan.OpNot:
		return 1 - o.selectivity(n.Inputs[0], envs, annotate)
	case plan.OpAnd:
		return o.selectivity(n.Inputs[0], envs, annotate) * o.selectivity(n.Inputs[1], envs, annotate)
	case plan.OpOr:
		a := o.selectivity(n.Inputs[0], envs, annotate)
		b := o.selectivity(n.Inputs[1], envs, annotate)
		return a + b - a*b
	default:
		return defaultCondSel
	}
}

// keySelectivity prices a comparison between two sides: for = by their
// distinct-value summaries, for the orders at defaultCondSel. addEdge also
// records a join-graph edge from the left side to the right, named by the
// comparator, when both track back to distinct access paths.
func (o *optimizer) keySelectivity(op plan.Op, lp, rp *prov, addEdge bool) float64 {
	sel, pred := defaultCondSel, "<"
	switch op {
	case plan.OpCmpEq:
		sel, pred = defaultEqSel, "="
		if d := math.Max(o.distinctOf(lp), o.distinctOf(rp)); d >= 1 {
			sel = 1 / d
		}
	case plan.OpCmpLess:
		pred = "deep-less"
	}
	if addEdge && lp != nil && rp != nil && lp.vertex >= 0 && rp.vertex >= 0 && lp.vertex != rp.vertex {
		o.report.Graph.Edges = append(o.report.Graph.Edges, Edge{
			From: lp.vertex, To: rp.vertex, Pred: pred, Selectivity: sel,
		})
	}
	return sel
}

// estBindVar estimates the literal nested-loop translation: the body
// runs once per domain tree per environment.
func (o *optimizer) estBindVar(n *plan.Node, envs float64, annotate bool) (float64, float64, *prov) {
	dRows, dCount, dProv := o.est(n.Inputs[0], envs, annotate)
	newEnvs := math.Max(dCount, 0)
	ve := varEst{
		perEnvRows:  safeDiv(dRows, dCount),
		perEnvCount: 1,
		prov:        instanceProv(dProv, dCount),
	}
	var bRows, bCount float64
	var bProv *prov
	o.envs = append(o.envs, depthEnvs{depth: n.Depth + n.Inputs[0].Digits, envs: newEnvs})
	o.withLoopVars(n, ve, func() {
		bRows, bCount, bProv = o.est(n.Inputs[1], newEnvs, annotate)
	})
	o.envs = o.envs[:len(o.envs)-1]
	return bRows, bCount, bProv
}

// estMSJ costs the merge-join loop against its nested-loop alternative,
// demotes the node in place when the nested loop is cheaper, and
// estimates the chosen shape. The body cost is identical either way
// (both shapes run it over the same matching environments), so the
// decision compares only the join machinery.
func (o *optimizer) estMSJ(n *plan.Node, envs float64, annotate bool) (float64, float64, *prov) {
	domain, outer, inner, body := n.Inputs[0], n.Inputs[1], n.Inputs[2], n.Inputs[3]
	e0 := o.envsAt(n.D0)
	if e0 <= 0 {
		e0 = 1
	}

	// Dry-run the pieces (no annotation, cost restored) to price both
	// algorithms.
	mark := o.cost
	dRows, dCount, dProv := o.est(domain, e0, false)
	c0 := safeDiv(dCount, e0)
	instRows := safeDiv(dRows, dCount)
	oRows, _, oProv := o.est(outer, envs, false)
	ve := varEst{perEnvRows: instRows, perEnvCount: 1, prov: instanceProv(dProv, dCount)}
	var iRows float64
	var iProv *prov
	o.withLoopVars(n, ve, func() { iRows, _, iProv = o.est(inner, math.Max(dCount, 1), false) })
	o.cost = mark
	sel := o.keySelectivity(n.Cmp, iProv, oProv, false)
	matches := envs * c0 * sel

	sortInput := oRows + iRows
	costMSJ := dRows + oRows + iRows +
		sortFactor*sortInput*math.Log2(2+sortInput) + sortSetup +
		matches*instRows
	costNLJ := (envs/e0)*dRows + // domain embedded into every outer environment
		(envs/e0)*iRows + // inner key per candidate pair
		c0*oRows + // outer key replicated per iteration
		envs*c0 + // loop-entry bookkeeping
		matches*instRows

	demote := costNLJ < costMSJ
	if annotate {
		obs.OptLoopsCosted.Inc()
		choice := "merge-join"
		if demote {
			choice = "nested-loop"
			obs.OptDemotions.Inc()
		}
		o.report.Decisions = append(o.report.Decisions, Decision{
			Loop: "$" + n.Label, Choice: choice,
			CostMergeJoin: costMSJ, CostNestedLoop: costNLJ,
			EstMatches: int64(math.Round(matches)),
		})
		o.decisionNodes = append(o.decisionNodes, n)
	}

	if demote {
		demoteMSJ(n)
		return o.estBindVar(n, envs, annotate)
	}

	// Keep the merge join: estimate for real at the proper environment
	// counts. This pass registers the access-path vertices, so re-derive
	// the key provenances from it to record the join edge.
	_, _, dProv2 := o.est(domain, e0, annotate)
	_, _, oProv2 := o.est(outer, envs, annotate)
	ve = varEst{perEnvRows: instRows, perEnvCount: 1, prov: instanceProv(dProv2, dCount)}
	var iProv2 *prov
	o.withLoopVars(n, ve, func() { _, _, iProv2 = o.est(inner, math.Max(dCount, 1), annotate) })
	if annotate {
		l, r := iProv2, oProv2 // the predicate's operand order
		if n.InnerRight {
			l, r = r, l
		}
		o.keySelectivity(n.Cmp, l, r, true)
	}
	var bRows, bCount float64
	var bProv *prov
	o.envs = append(o.envs, depthEnvs{depth: n.Depth + domain.Digits, envs: matches})
	o.withLoopVars(n, ve, func() { bRows, bCount, bProv = o.est(body, matches, annotate) })
	o.envs = o.envs[:len(o.envs)-1]
	return bRows, bCount, bProv
}

// demoteMSJ rewrites an OpMSJ node in place into the literal OpBindVar
// translation: bind the loop variable over the domain and filter the
// body environments by the join predicate, rebuilt as the comparator the
// node recorded over its key sides in their original operand order.
// Execution is environment-driven (static depth annotations are
// advisory), so the rewritten tree produces digit-identical results —
// the property the difftest matrix pins against both forced modes.
func demoteMSJ(n *plan.Node) {
	domain, outer, inner, body := n.Inputs[0], n.Inputs[1], n.Inputs[2], n.Inputs[3]
	l, r := inner, outer
	if n.InnerRight {
		l, r = outer, inner
	}
	pred := &plan.Node{
		Op: n.Cmp, Depth: body.Depth, Est: -1,
		Inputs: []*plan.Node{l, r},
	}
	filter := &plan.Node{
		Op: plan.OpFilter, Depth: body.Depth, Digits: body.Digits, Est: -1,
		Inputs: []*plan.Node{pred, body},
	}
	n.Op = plan.OpBindVar
	n.D0, n.DomainVars, n.Cmp, n.InnerRight = 0, nil, 0, false
	n.Inputs = []*plan.Node{domain, filter}
}

func safeDiv(a, b float64) float64 {
	if b <= 0 {
		return a
	}
	return a / b
}

// estIndexPath estimates an index-resolved path chain from the statistics
// of the dataguide classes its resolution selected, and records it as a
// base access path of the join graph.
func (o *optimizer) estIndexPath(n *plan.Node, envs float64, annotate bool) (float64, float64, *prov) {
	sk := n.Seek
	pv := o.seekProv(sk)
	if sk.Pruned {
		empty := &prov{vertex: -1, paths: map[string]provPath{}}
		if pv != nil {
			empty.doc = pv.doc
		}
		if annotate {
			empty.vertex = o.addVertex(n, empty)
		}
		return 0, 0, empty
	}
	// Without provenance (a descendant seek, or a document without
	// statistics) out is nil, and what consumes the seek falls back to the
	// shape heuristics.
	_, pvRows := pv.total()
	out := scaleProv(pv, safeDiv(envs*float64(sk.Rows), math.Max(pvRows, 1)))
	if annotate {
		v := o.addVertex(n, out)
		if out != nil {
			out.vertex = v
		}
	}
	// The tree count is the instance count of the seek's classes, not the
	// number of coalesced ranges — one range can cover every instance, and
	// a loop over this domain iterates per instance. A descendant seek has
	// exactly one range per instance.
	count := envs * float64(len(sk.Ranges))
	if c, _ := out.total(); c > 0 {
		count = c
	}
	return envs * float64(sk.Rows), count, out
}

// seekProv is the provenance of an index seek: its classes with their
// statistics, nil when the seek has no classes or its document no
// statistics.
func (o *optimizer) seekProv(sk *plan.Seek) *prov {
	ds := o.doc(sk.Doc)
	if ds == nil || sk.Classes == nil {
		return nil
	}
	pv := &prov{doc: sk.Doc, vertex: -1, paths: make(map[string]provPath, len(sk.Classes))}
	for _, p := range sk.Classes {
		ps, ok := ds.Paths[p]
		if !ok {
			continue
		}
		rows := ps.SubtreeRows
		if sk.Roots {
			rows = ps.Count
		}
		pv.paths[p] = provPath{count: float64(ps.Count), rows: float64(rows)}
	}
	return pv
}

// addVertex records a base access path in the join graph and returns its
// vertex index.
func (o *optimizer) addVertex(n *plan.Node, pv *prov) int {
	_, rows := pv.total()
	kind := "scan"
	if n.Op == plan.OpIndexPath {
		rows = float64(n.Seek.Rows)
		kind = "index-seek"
		if n.Seek.Pruned {
			kind = "pruned"
		}
	}
	v := Vertex{Kind: kind, Detail: n.Detail(), EstRows: int64(math.Round(rows))}
	o.report.Graph.Vertices = append(o.report.Graph.Vertices, v)
	o.vertexNodes = append(o.vertexNodes, n)
	return len(o.report.Graph.Vertices) - 1
}

// orderSearch costs join orderings over the extracted graph. The
// syntactic order is what the plan executes (sequence semantics pin it);
// the search reports the cheapest order found so the gap is visible.
func (o *optimizer) orderSearch() {
	g := &o.report.Graph
	nv := len(g.Vertices)
	if nv < 2 || nv > maxOrderVertices {
		return
	}
	// selBetween[i][j] is the combined selectivity of all edges between
	// vertices i and j (1 when independent).
	sel := make([][]float64, nv)
	for i := range sel {
		sel[i] = make([]float64, nv)
		for j := range sel[i] {
			sel[i][j] = 1
		}
	}
	for _, e := range g.Edges {
		if e.From >= 0 && e.From < nv && e.To >= 0 && e.To < nv {
			sel[e.From][e.To] *= e.Selectivity
			sel[e.To][e.From] *= e.Selectivity
		}
	}
	cost := func(order []int) float64 {
		total := 0.0
		size := 0.0
		for k, v := range order {
			rows := math.Max(float64(g.Vertices[v].EstRows), 1)
			if k == 0 {
				size = rows
			} else {
				s := 1.0
				for _, prev := range order[:k] {
					s *= sel[prev][v]
				}
				size = size * rows * s
			}
			total += size
		}
		return total
	}
	given := make([]int, nv)
	for i := range given {
		given[i] = i
	}
	best := append([]int(nil), given...)
	bestCost := cost(given)
	perm := append([]int(nil), given...)
	var permute func(k int)
	permute = func(k int) {
		if k == len(perm) {
			if c := cost(perm); c < bestCost {
				bestCost = c
				copy(best, perm)
			}
			return
		}
		for i := k; i < len(perm); i++ {
			perm[k], perm[i] = perm[i], perm[k]
			permute(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	permute(0)
	g.Order = &OrderCost{
		Given: given, GivenCost: cost(given),
		Best: best, BestCost: bestCost,
		Pinned: true,
		Note:   "orderings are costed but pinned: for-loop nesting order is observable in XQuery sequence semantics",
	}
}

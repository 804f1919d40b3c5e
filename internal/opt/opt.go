// Package opt is the plan estimator: it walks a compiled physical plan
// (internal/plan) and writes every node's row estimate into Node.Est. It
// reads the statistics off the index's dataguide classes (index.Class),
// tracking which classes a value instantiates and mapping a path step
// over their labels and children. It never rewrites the plan — a DI-MSJ
// or DI-NLJ plan compiled with statistics is the plan compiled without,
// annotated — and the analyzed plan renders each estimate beside the
// actual row count, so misestimates are visible per operator end to end.
// See DESIGN.md §4.12.
package opt

import (
	"math"

	"dixq/internal/index"
	"dixq/internal/obs"
	"dixq/internal/plan"
)

// Estimation constants, used where the statistics do not resolve a value.
const (
	// defaultEqSel is the equality selectivity assumed when neither side
	// resolves to a text path with distinct-value statistics.
	defaultEqSel = 0.1
	// defaultCondSel is the selectivity of a non-equality condition.
	defaultCondSel = 0.5
	// nominalDocTuples is the document size assumed for a document without
	// statistics.
	nominalDocTuples = 1000
)

// Optimize writes the statistics-fed row estimate of every node of a
// compiled plan into Node.Est, leaving the plan's shape untouched. Scans
// read st's classes, a seek the handles it was compiled with (st need only
// hold its document); nil st degrades every estimate to a nominal document.
func Optimize(root *plan.Node, st *index.Set) {
	o := &estimator{
		vars: map[string]varEst{},
		envs: []depthEnvs{{depth: 0, envs: 1}},
	}
	if st != nil {
		o.docs = st.Docs
	}
	obs.OptPlans.Inc()
	o.est(root, 1)
}

// estimator carries the state of one Optimize call.
type estimator struct {
	docs map[string]*index.DocIndex // nil without statistics
	vars map[string]varEst
	// envs is the stack of (static depth, estimated environment count)
	// pairs pushed at loop entries; envsAt walks it to recover the
	// environment count of an ancestor depth (the OpMSJ domain depth D0).
	envs []depthEnvs
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
	doc string
	// classes holds each class once, in trie order, so sums over them
	// run in a fixed order.
	classes []provClass
}

// provClass is one class of a provenance, with its instance count and
// subtree rows scaled by upstream selectivity (so they are totals across
// all current environments of one env). c is nil for the nominal class of
// a document without an index.
type provClass struct {
	c     *index.Class
	count float64
	rows  float64
}

func (p *prov) total() (count, rows float64) {
	if p == nil {
		return 0, 0
	}
	for _, pc := range p.classes {
		count += pc.count
		rows += pc.rows
	}
	return count, rows
}

func (o *estimator) envsAt(depth int) float64 {
	for i := len(o.envs) - 1; i >= 0; i-- {
		if o.envs[i].depth <= depth {
			return o.envs[i].envs
		}
	}
	return 1
}

// withVar runs fn with a variable bound, restoring the previous binding
// after — the estimator's mirror of the compiler's scope tracking.
func (o *estimator) withVar(name string, ve varEst, fn func()) {
	old, had := o.vars[name]
	o.vars[name] = ve
	fn()
	if had {
		o.vars[name] = old
	} else {
		delete(o.vars, name)
	}
}

func (o *estimator) withLoopVars(n *plan.Node, ve varEst, fn func()) {
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

// est estimates one node at the given environment count and writes
// Node.Est. It returns total rows, total top-level tree count, and the
// dataguide provenance (nil when the value is not doc-rooted or tracking
// was lost).
func (o *estimator) est(n *plan.Node, envs float64) (rows, count float64, pv *prov) {
	defer func() { annotateEst(n, rows) }()

	switch n.Op {
	case plan.OpScan:
		pv = o.scanProv(n.Label)
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
		vRows, vCount, vProv := o.est(n.Inputs[0], envs)
		var bRows, bCount float64
		var bProv *prov
		o.withVar(n.Label, varEst{perEnvRows: safeDiv(vRows, envs), perEnvCount: safeDiv(vCount, envs), prov: vProv}, func() {
			bRows, bCount, bProv = o.est(n.Inputs[1], envs)
		})
		return bRows, bCount, bProv

	case plan.OpFilter:
		sel := o.selectivity(n.Inputs[0], envs)
		bRows, bCount, bProv := o.est(n.Inputs[1], envs*sel)
		return bRows, bCount, scaleProv(bProv, sel)

	case plan.OpBindVar:
		return o.estBindVar(n, envs)

	case plan.OpMSJ:
		return o.estMSJ(n, envs)

	case plan.OpIndexPath:
		return o.estIndexPath(n, envs)

	case plan.OpRoots:
		_, inCount, inProv := o.est(n.Inputs[0], envs)
		return inCount, inCount, singletonProv(inProv)

	case plan.OpPathStep:
		return o.estPathStep(n, envs)

	case plan.OpStructuralSort, plan.OpReverse:
		inRows, inCount, inProv := o.est(n.Inputs[0], envs)
		return inRows, inCount, inProv

	case plan.OpDistinct:
		inRows, inCount, inProv := o.est(n.Inputs[0], envs)
		return inRows/2 + 1, inCount/2 + 1, scaleProv(inProv, 0.5)

	case plan.OpSubtreesDFS:
		inRows, _, _ := o.est(n.Inputs[0], envs)
		return 3 * inRows, inRows, nil

	case plan.OpConstruct:
		inRows, _, _ := o.est(n.Inputs[0], envs)
		return inRows + 2*envs, envs, nil

	case plan.OpConcat:
		aRows, aCount, _ := o.est(n.Inputs[0], envs)
		bRows, bCount, _ := o.est(n.Inputs[1], envs)
		return aRows + bRows, aCount + bCount, nil

	case plan.OpCount, plan.OpAggregate:
		o.est(n.Inputs[0], envs)
		return 2 * envs, envs, nil

	case plan.OpArith:
		o.est(n.Inputs[0], envs)
		o.est(n.Inputs[1], envs)
		return 2 * envs, envs, nil

	case plan.OpTake, plan.OpDrop:
		inRows, inCount, _ := o.est(n.Inputs[0], envs)
		return inRows/2 + 1, inCount/2 + 1, nil

	case plan.OpOrderBy:
		inRows, inCount, inProv := o.est(n.Inputs[0], envs)
		return inRows, inCount, inProv

	default:
		// Predicates are estimated through selectivity; anything else
		// (OpInvalid) contributes nothing.
		for _, c := range n.Inputs {
			o.est(c, envs)
		}
		return 0, 0, nil
	}
}

// scanProv builds the provenance of a document scan: every top-level
// dataguide class with its statistics.
func (o *estimator) scanProv(doc string) *prov {
	ix := o.docs[doc]
	if ix == nil {
		return &prov{doc: doc, classes: []provClass{{count: 1, rows: nominalDocTuples}}}
	}
	return classProv(doc, ix.TopClasses(), 1)
}

// classProv is the provenance of every instance of classes, scaled by f.
func classProv(doc string, classes []*index.Class, f float64) *prov {
	pv := &prov{doc: doc, classes: make([]provClass, 0, len(classes))}
	for _, c := range classes {
		pv.classes = append(pv.classes, provClass{c, float64(c.Count()) * f, float64(c.SubtreeRows()) * f})
	}
	return pv
}

// mapProv applies fn to every class of p, keeping the classes it returns
// true for; nil stays nil.
func mapProv(p *prov, fn func(pc *provClass) bool) *prov {
	if p == nil {
		return nil
	}
	out := &prov{doc: p.doc, classes: make([]provClass, 0, len(p.classes))}
	for _, pc := range p.classes {
		if fn(&pc) {
			out.classes = append(out.classes, pc)
		}
	}
	return out
}

func scaleProv(p *prov, f float64) *prov {
	return mapProv(p, func(pc *provClass) bool {
		pc.count, pc.rows = pc.count*f, pc.rows*f
		return true
	})
}

// singletonProv is provenance after roots(): same classes, but each
// instance is a bare node, so subtree rows collapse to the count.
func singletonProv(p *prov) *prov {
	return mapProv(p, func(pc *provClass) bool {
		pc.rows = pc.count
		return true
	})
}

// instanceProv is the provenance of a loop variable: one instance of the
// domain's classes per environment, scaled to per-instance weights.
func instanceProv(p *prov, totalCount float64) *prov {
	if p == nil || totalCount <= 0 {
		return nil
	}
	return scaleProv(p, 1/totalCount)
}

// estPathStep estimates one path operator, tracking dataguide provenance
// through select/seltext/children/data chains for exact counts.
func (o *estimator) estPathStep(n *plan.Node, envs float64) (float64, float64, *prov) {
	inRows, inCount, inProv := o.est(n.Inputs[0], envs)
	if inProv == nil || o.docs[inProv.doc] == nil {
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
	var out *prov
	switch n.Step {
	case plan.StepSelect:
		out = filterProv(inProv, n.Label)
	case plan.StepSelText:
		out = filterProv(inProv, "")
	case plan.StepChildren:
		out = childrenProv(inProv)
	case plan.StepData:
		out = filterProv(childrenProv(inProv), "")
	case plan.StepHead, plan.StepTail:
		// Keeps at most one (resp. all but one) tree per environment;
		// provenance fractions stop being meaningful.
		return inRows/2 + 1, math.Min(inCount, envs), nil
	default:
		return inRows, inCount, nil
	}
	c, r := out.total()
	return r, c, out
}

// filterProv keeps the classes with the given label: select semantics
// over the dataguide, or seltext's for "", the text class label.
func filterProv(p *prov, label string) *prov {
	return mapProv(p, func(pc *provClass) bool { return pc.c.Label() == label })
}

// childrenProv replaces each class by its child classes, scaling child
// counts by the fraction of parent instances present.
func childrenProv(p *prov) *prov {
	out := &prov{doc: p.doc}
	for _, pc := range p.classes {
		if pc.c.Count() == 0 {
			continue
		}
		kids := classProv(p.doc, pc.c.Children(), pc.count/float64(pc.c.Count()))
		out.classes = append(out.classes, kids.classes...)
	}
	return out
}

// distinctOf returns the distinct-value count of a provenance that
// resolves to text classes, or 0 when unknown.
func (o *estimator) distinctOf(p *prov) float64 {
	if p == nil || o.docs[p.doc] == nil {
		return 0
	}
	var d float64
	for _, pc := range p.classes {
		if pc.c.Label() != "" {
			// Element content: its string value is still its text
			// descendants; approximate with the direct text child class.
			if t := pc.c.Child(""); t != nil {
				d += float64(t.DistinctText())
			}
			continue
		}
		d += float64(pc.c.DistinctText())
	}
	return d
}

// selectivity estimates the pass fraction of a predicate node and
// estimates its expression children at the given environment count.
// Value-join equalities over text paths use 1/max(distinct) from the
// statistics; everything else falls back to fixed defaults.
func (o *estimator) selectivity(n *plan.Node, envs float64) float64 {
	// A predicate produces one verdict per environment.
	annotateEst(n, envs)
	switch n.Op {
	case plan.OpCmpEq:
		_, _, lp := o.est(n.Inputs[0], envs)
		_, _, rp := o.est(n.Inputs[1], envs)
		return o.keySelectivity(plan.OpCmpEq, lp, rp)
	case plan.OpCmpLess, plan.OpCmpVal, plan.OpContainsTest:
		o.est(n.Inputs[0], envs)
		o.est(n.Inputs[1], envs)
		return defaultCondSel
	case plan.OpEmptyTest:
		o.est(n.Inputs[0], envs)
		return defaultCondSel
	case plan.OpNot:
		return 1 - o.selectivity(n.Inputs[0], envs)
	case plan.OpAnd:
		return o.selectivity(n.Inputs[0], envs) * o.selectivity(n.Inputs[1], envs)
	case plan.OpOr:
		a := o.selectivity(n.Inputs[0], envs)
		b := o.selectivity(n.Inputs[1], envs)
		return a + b - a*b
	default:
		return defaultCondSel
	}
}

// keySelectivity prices a comparison between two sides: for = by their
// distinct-value summaries, for the orders at defaultCondSel.
func (o *estimator) keySelectivity(op plan.Op, lp, rp *prov) float64 {
	if op != plan.OpCmpEq {
		return defaultCondSel
	}
	if d := math.Max(o.distinctOf(lp), o.distinctOf(rp)); d >= 1 {
		return 1 / d
	}
	return defaultEqSel
}

// estBindVar estimates the literal nested-loop translation: the body
// runs once per domain tree per environment.
func (o *estimator) estBindVar(n *plan.Node, envs float64) (float64, float64, *prov) {
	dRows, dCount, dProv := o.est(n.Inputs[0], envs)
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
		bRows, bCount, bProv = o.est(n.Inputs[1], newEnvs)
	})
	o.envs = o.envs[:len(o.envs)-1]
	return bRows, bCount, bProv
}

// estMSJ estimates the merge-join loop: the domain at the environment
// count of its depth D0, the outer key at the current environments, the
// inner key once per domain tree, and the body once per estimated match.
func (o *estimator) estMSJ(n *plan.Node, envs float64) (float64, float64, *prov) {
	domain, outer, inner, body := n.Inputs[0], n.Inputs[1], n.Inputs[2], n.Inputs[3]
	e0 := o.envsAt(n.D0)
	if e0 <= 0 {
		e0 = 1
	}
	dRows, dCount, dProv := o.est(domain, e0)
	_, _, oProv := o.est(outer, envs)
	ve := varEst{perEnvRows: safeDiv(dRows, dCount), perEnvCount: 1, prov: instanceProv(dProv, dCount)}
	var iProv *prov
	o.withLoopVars(n, ve, func() { _, _, iProv = o.est(inner, math.Max(dCount, 1)) })
	matches := envs * safeDiv(dCount, e0) * o.keySelectivity(n.Cmp, iProv, oProv)

	var bRows, bCount float64
	var bProv *prov
	o.envs = append(o.envs, depthEnvs{depth: n.Depth + domain.Digits, envs: matches})
	o.withLoopVars(n, ve, func() { bRows, bCount, bProv = o.est(body, matches) })
	o.envs = o.envs[:len(o.envs)-1]
	return bRows, bCount, bProv
}

func safeDiv(a, b float64) float64 {
	if b <= 0 {
		return a
	}
	return a / b
}

// estIndexPath estimates an index-resolved path chain from the statistics
// of the dataguide classes its resolution selected.
func (o *estimator) estIndexPath(n *plan.Node, envs float64) (float64, float64, *prov) {
	sk := n.Seek
	pv := o.seekProv(sk)
	if sk.Pruned {
		return 0, 0, pv // a pruned seek's class set is empty
	}
	// Without provenance (a descendant seek, or a document without
	// statistics) out is nil, and what consumes the seek falls back to the
	// shape heuristics.
	_, pvRows := pv.total()
	out := scaleProv(pv, safeDiv(envs*float64(sk.Rows), math.Max(pvRows, 1)))
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
// annotations, nil when the seek has no classes or the estimator no index
// of its document.
func (o *estimator) seekProv(sk *plan.Seek) *prov {
	if o.docs[sk.Doc] == nil || sk.Classes == nil {
		return nil
	}
	pv := classProv(sk.Doc, sk.Classes, 1)
	if sk.Roots {
		return singletonProv(pv)
	}
	return pv
}

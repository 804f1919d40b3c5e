package core

import (
	"fmt"
	"slices"
	"sort"

	"dixq/internal/engine"
	"dixq/internal/exec"
	"dixq/internal/interval"
	"dixq/internal/obs"
	"dixq/internal/plan"
	"dixq/internal/xnum"
)

// execMergeJoin runs an OpMSJ node — the Section 5 evaluation of a
// for-loop whose domain is invariant with respect to the current
// environments and whose condition contains a separable comparison (=,
// deep-less or the value <, recorded in n.Cmp). The
// compiler proved the pattern applies and split the pieces into the
// node's inputs: [domain, outer-key, inner-key, body], with residual
// conjuncts already folded into a filter around the body.
//
// The steps mirror the paper's description:
//
//  1. evaluate the domain once, in the ancestor environment it depends on;
//  2. build the candidate inner environments independently;
//  3. evaluate the two join keys on their own sides;
//  4. sort both environment sequences by the order of their key forests
//     (DeepCompare, the paper's Algorithm 5.3, as the comparator — with
//     roots extraction, Algorithm 5.2, splitting each side into its
//     per-environment key forests; the value order of one atom per
//     environment for the value <) and merge: equal runs for =, a binary
//     searched prefix or suffix of the outer's prefix run for <;
//  5. rebuild the combined environments of the matching pairs in document
//     order — identical to the environments the nested-loop strategy would
//     produce, so all downstream translation steps are unchanged.
func (ev *evaluator) execMergeJoin(n *plan.Node, en *env) (*table, error) {
	domainP, outerKeyP, innerKeyP, bodyP := n.Inputs[0], n.Inputs[1], n.Inputs[2], n.Inputs[3]

	// The loop-invariance depth d0 is recomputed from the runtime binding
	// depths of the domain's free variables: on updated documents the
	// runtime widths (hence depths) can exceed the static annotation, and
	// the rebuild arithmetic below must follow the data.
	d0 := 0
	for _, name := range n.DomainVars {
		b, ok := en.lookup(name)
		if !ok {
			return nil, fmt.Errorf("core: unbound variable $%s", name)
		}
		if b.depth > d0 {
			d0 = b.depth
		}
	}
	anc := ancestorAt(en, d0)
	if anc == nil {
		return nil, fmt.Errorf("core: internal: no environment at depth %d", d0)
	}

	// (1) + (2): the inner environments, built once.
	domTab, err := ev.exec(domainP, anc)
	if err != nil {
		return nil, err
	}
	roots := engine.Roots(domTab.rel)
	yIndex := engine.EnterIndex(roots)
	yDepth := d0 + domTab.local
	yBound := engine.BindVar(domTab.rel, roots, d0, yDepth)
	yEnv := anc.child(yDepth, yIndex)
	yEnv.vars[n.Label] = binding{tab: &table{rel: yBound, local: domTab.local}, depth: yDepth}
	var yPos *interval.Relation
	if n.Pos != "" {
		yPos = engine.Positions(roots, d0, yDepth)
		yEnv.vars[n.Pos] = binding{tab: &table{rel: yPos, local: 1}, depth: yDepth}
	}

	// (3): join keys on each side.
	innerTab, err := ev.exec(innerKeyP, yEnv)
	if err != nil {
		return nil, err
	}
	outerTab, err := ev.exec(outerKeyP, en)
	if err != nil {
		return nil, err
	}

	// (4): sort and merge. Matches are constrained to pairs
	// sharing the same depth-d0 ancestor environment, which is part of the
	// join key (leading the comparator).
	outerGroups := engine.GroupByEnv(en.index, en.depth, outerTab.rel)
	innerGroups := engine.GroupByEnv(yIndex, yDepth, innerTab.rel)
	pairs, spilled, err := mergeJoinEnvs(n, en.index, outerGroups, yIndex, innerGroups, d0, ev.spill)
	if err != nil {
		return nil, err
	}
	ev.noteSpill(spilled)
	// The side sorts and the probe halves ran as pairs (exec.Pair).
	ev.node(n).Workers = 2

	// (5): rebuild combined environments in document order. Every rebuilt
	// key is written into shared fixed-stride buffers (one builder per output
	// relation, one arena for the index keys).
	newDepth := en.depth + domTab.local
	yValGroups := engine.GroupByEnv(yIndex, yDepth, yBound)
	var yPosGroups [][]interval.Tuple
	if yPos != nil {
		yPosGroups = engine.GroupByEnv(yIndex, yDepth, yPos)
	}
	newIndex := make(engine.Index, 0, len(pairs))
	lw := max(0, yBound.MaxKeyLen()-yDepth)
	valB := interval.NewBuilder(newDepth+lw, len(yBound.Tuples))
	posBld := interval.NewBuilder(newDepth+1, 0)
	var arena interval.KeyArena
	for _, p := range pairs {
		envKey := arena.Rebase(en.index[p.outer], en.depth, yIndex[p.inner], d0)
		newIndex = append(newIndex, envKey)
		valB.SetBase(envKey, newDepth)
		for _, t := range yValGroups[p.inner] {
			valB.Rebase(t.S, t.L, t.R, yDepth)
		}
		if yPosGroups != nil {
			posBld.SetBase(envKey, newDepth)
			for _, t := range yPosGroups[p.inner] {
				posBld.Rebase(t.S, t.L, t.R, yDepth)
			}
		}
	}
	joined, joinedPos := valB.Relation(), posBld.Relation()
	ev.stats.MergeJoins++

	child := en.child(newDepth, newIndex)
	child.vars[n.Label] = binding{tab: &table{rel: joined, local: domTab.local}, depth: newDepth}
	if n.Pos != "" {
		child.vars[n.Pos] = binding{tab: &table{rel: joinedPos, local: 1}, depth: newDepth}
	}

	body, err := ev.exec(bodyP, child)
	if err != nil {
		return nil, err
	}
	return &table{rel: body.rel, local: domTab.local + body.local}, nil
}

// ancestorAt walks the environment chain to the nearest environment of
// exactly the given depth.
func ancestorAt(en *env, depth int) *env {
	for cur := en; cur != nil; cur = cur.parent {
		if cur.depth == depth {
			return cur
		}
		if cur.depth < depth {
			return nil
		}
	}
	return nil
}

// envPair is one join match: positions into the outer and inner indexes.
type envPair struct {
	outer, inner int
}

// mergeJoinEnvs sorts both environment sequences by (ancestor prefix,
// key order) and merges them under the node's comparator, returning all
// matching pairs ordered by (outer position, inner position) — document
// order of the combined environments — and what the side sorts spilled.
// Each side's sort units are its environment keys with their key forests,
// ordered through the budgeted sort (engine.SortUnits), so under a memory
// budget the side sorts spill to disk; the merged match set is identical
// either way. For the value < each side's key forest is first reduced to its
// deciding atom — the minimum on the left of <, the maximum on its right,
// ValueLessPerEnv's rule — and an environment with an empty key, which
// matches nothing, is dropped before the sort. The two sides sort at once,
// the outer on a second goroutine and the inner on the caller's
// (exec.Pair), and the probe then runs the two halves of the sorted outer
// the same way (probePair).
func mergeJoinEnvs(n *plan.Node, outerIndex engine.Index, outerGroups [][]interval.Tuple,
	innerIndex engine.Index, innerGroups [][]interval.Tuple, d0 int,
	spill *engine.SpillConfig) ([]envPair, engine.SpillStats, error) {

	keyCmp := engine.CompareForests
	var outerPos, innerPos []int
	if n.Cmp == plan.OpCmpVal {
		outerIndex, outerGroups, outerPos = valueKeys(outerIndex, outerGroups, !n.InnerRight)
		innerIndex, innerGroups, innerPos = valueKeys(innerIndex, innerGroups, n.InnerRight)
		keyCmp = func(a, b []interval.Tuple) int { return xnum.Compare(a[0].S, b[0].S) }
	}
	// Matches share their depth-d0 ancestor environment, so the key prefix
	// leads the comparator.
	cmp := func(ka interval.Key, a []interval.Tuple, kb interval.Key, b []interval.Tuple) int {
		if c := ka.ComparePrefix(kb, d0); c != 0 {
			return c
		}
		return keyCmp(a, b)
	}
	// Each side gets its own result slots and stats block; the comparator
	// and the budgeted sort touch no shared mutable state.
	keys := [2]engine.Index{outerIndex, innerIndex}
	groups := [2][][]interval.Tuple{outerGroups, innerGroups}
	var orders [2][]int
	var stats [2]engine.SpillStats
	var errs [2]error
	sortSide := func(side int) {
		k, g := keys[side], groups[side]
		byPos := func(a, b int) int { return cmp(k[a], g[a], k[b], g[b]) }
		orders[side], errs[side] = engine.SortUnits(k, g, byPos, spill, &stats[side])
	}
	exec.Pair(func() { sortSide(0) }, func() { sortSide(1) })
	spilled := engine.SpillStats{Runs: stats[0].Runs + stats[1].Runs, Bytes: stats[0].Bytes + stats[1].Bytes}
	for _, err := range errs {
		if err != nil {
			return nil, spilled, err
		}
	}

	jo := joinOrder{
		full: func(o, i int) int {
			return cmp(outerIndex[o], outerGroups[o], innerIndex[i], innerGroups[i])
		},
		prefix: func(o, i int) int { return outerIndex[o].ComparePrefix(innerIndex[i], d0) },
	}
	switch {
	case n.Cmp == plan.OpCmpEq:
	case n.InnerRight:
		jo.theta = 1
	default:
		jo.theta = -1
	}
	pairs := probePair(orders[0], orders[1], jo)
	obs.ProbePairs.Add(int64(len(pairs)))
	if outerPos != nil {
		for k, p := range pairs {
			pairs[k] = envPair{outer: outerPos[p.outer], inner: innerPos[p.inner]}
		}
	}
	slices.SortFunc(pairs, func(a, b envPair) int {
		if a.outer != b.outer {
			return a.outer - b.outer
		}
		return a.inner - b.inner
	})
	return pairs, spilled, nil
}

// valueKeys reduces each environment's key forest to the atom the value <
// decides on (engine.ExtremeRoot: the greatest root label with greatest,
// else the least) and drops the environments whose key is empty. It
// returns the kept environments' keys, their one-tuple sort units, and
// each kept unit's position among the input environments.
func valueKeys(index engine.Index, groups [][]interval.Tuple, greatest bool) (engine.Index, [][]interval.Tuple, []int) {
	var keys engine.Index
	var units [][]interval.Tuple
	var pos []int
	for i, g := range groups {
		if s, ok := engine.ExtremeRoot(g, greatest); ok {
			keys = append(keys, index[i])
			units = append(units, []interval.Tuple{{S: s}})
			pos = append(pos, i)
		}
	}
	return keys, units, pos
}

// joinOrder is how the probe compares an outer unit o with an inner unit
// i: full is the sort order of both sides (d0 prefix, then key) and prefix
// the d0 prefix alone. theta picks the matches within the outer's prefix
// run of the sorted inner: 0 the inners whose key equals the outer's (=),
// -1 those whose key sorts below it (inner < outer), +1 those above it
// (outer < inner).
type joinOrder struct {
	full, prefix func(o, i int) int
	theta        int
}

// probePair is the merge-join probe: it probes the two halves of the
// sorted outer against the whole sorted inner at once (exec.Pair) and
// returns the matching pairs in emission order (the caller's final
// (outer, inner) sort fixes document order). Every outer lives in one
// half, and probeRange finds all of an outer's matches wherever its range
// starts, so an equal-key run of outers cut between the halves is matched
// in full from both sides of the cut: the union of the halves' pairs is
// the whole probe's, each pair once.
func probePair(outerOrder, innerOrder []int, jo joinOrder) []envPair {
	mid := len(outerOrder) / 2
	var lo, hi []envPair
	exec.Pair(func() { lo = probeRange(outerOrder[:mid], innerOrder, jo) },
		func() { hi = probeRange(outerOrder[mid:], innerOrder, jo) })
	return append(lo, hi...)
}

// probeRange is the serial probe of one sorted outer range against the
// whole sorted inner.
func probeRange(outerOrder, innerOrder []int, jo joinOrder) []envPair {
	if len(outerOrder) == 0 {
		return nil
	}
	var pairs []envPair
	if jo.theta != 0 {
		// An outer's matches are the part of its prefix run in the inner
		// below (-1) or above (+1) its own key: one end is where the run
		// starts or stops, the other where the inner passes the outer.
		for _, o := range outerOrder {
			// first is the first inner position k with order(o, k) < c:
			// c = 1 finds the first inner not below o, c = 0 the first above.
			first := func(order func(o, i int) int, c int) int {
				return sort.Search(len(innerOrder), func(k int) bool { return order(o, innerOrder[k]) < c })
			}
			lo, hi := first(jo.prefix, 1), first(jo.full, 1)
			if jo.theta > 0 {
				lo, hi = first(jo.full, 0), first(jo.prefix, 0)
			}
			for _, i := range innerOrder[lo:hi] {
				pairs = append(pairs, envPair{outer: o, inner: i})
			}
		}
		return pairs
	}
	// Everything before the first inner position not below the first
	// outer element can only match earlier outer ranges.
	first := outerOrder[0]
	ii := sort.Search(len(innerOrder), func(k int) bool { return jo.full(first, innerOrder[k]) <= 0 })
	oi := 0
	for oi < len(outerOrder) && ii < len(innerOrder) {
		c := jo.full(outerOrder[oi], innerOrder[ii])
		switch {
		case c < 0:
			oi++
		case c > 0:
			ii++
		default:
			// Find the equal runs on both sides.
			oEnd := oi + 1
			for oEnd < len(outerOrder) && jo.full(outerOrder[oEnd], innerOrder[ii]) == 0 {
				oEnd++
			}
			iEnd := ii + 1
			for iEnd < len(innerOrder) && jo.full(outerOrder[oi], innerOrder[iEnd]) == 0 {
				iEnd++
			}
			for _, o := range outerOrder[oi:oEnd] {
				for _, i := range innerOrder[ii:iEnd] {
					pairs = append(pairs, envPair{outer: o, inner: i})
				}
			}
			oi, ii = oEnd, iEnd
		}
	}
	return pairs
}

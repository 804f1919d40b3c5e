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
)

// execMergeJoin runs an OpMSJ node — the Section 5 evaluation of a
// for-loop whose domain is invariant with respect to the current
// environments and whose condition contains a separable equality. The
// compiler proved the pattern applies and split the pieces into the
// node's inputs: [domain, outer-key, inner-key, body], with residual
// conjuncts already folded into a filter around the body.
//
// The steps mirror the paper's description:
//
//  1. evaluate the domain once, in the ancestor environment it depends on;
//  2. build the candidate inner environments independently;
//  3. evaluate the two join keys on their own sides;
//  4. sort both environment sequences by the structural order of their key
//     forests (DeepCompare, the paper's Algorithm 5.3, as the comparator —
//     with roots extraction, Algorithm 5.2, splitting each side into its
//     per-environment key forests) and merge;
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

	// (4): structural sort and merge. Matches are constrained to pairs
	// sharing the same depth-d0 ancestor environment, which is part of the
	// join key (leading the comparator).
	outerGroups := engine.GroupByEnv(en.index, en.depth, outerTab.rel)
	innerGroups := engine.GroupByEnv(yIndex, yDepth, innerTab.rel)
	pairs, joinInfo, err := mergeJoinEnvs(en.index, outerGroups, yIndex, innerGroups, d0, ev.opts.Parallelism, ev.spill)
	if err != nil {
		return nil, err
	}
	ev.noteSpill(joinInfo.spill)
	ns := ev.node(n)
	ns.Workers = max(ns.Workers, joinInfo.workers)
	ns.Partitions = max(ns.Partitions, joinInfo.partitions)

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

// joinPhaseInfo is the runtime accounting mergeJoinEnvs hands back for
// ExplainAnalyze and the spill counters: spill volume of the side sorts,
// the maximum worker count any phase (side sorts or probe) reached, and
// how many key-range partitions the probe phase split into (1 when it ran
// serial).
type joinPhaseInfo struct {
	spill      engine.SpillStats
	workers    int
	partitions int
}

// ParallelProbeThreshold is the minimum sorted-outer length for which the
// probe phase range-partitions across workers; below it the partition
// setup (binary searches, per-partition buffers) costs more than the scan.
// It is a variable so tests can force the parallel probe on small inputs.
var ParallelProbeThreshold = 2048

// mergeJoinEnvs sorts both environment sequences by (ancestor prefix,
// structural key order) and merges them, returning all matching pairs
// ordered by (outer position, inner position) — document order of the
// combined environments — plus phase accounting. Each side's sort units
// are its environment keys with their key forests, ordered through the
// budgeted sort (engine.SortUnits), so under a memory budget the side
// sorts spill to disk; the merged match set is identical either way. The
// two sides sort as two tasks, concurrently with parallelism >= 2 (each
// with half the worker bound), and the probe range-partitions the sorted
// outer across workers.
func mergeJoinEnvs(outerIndex engine.Index, outerGroups [][]interval.Tuple,
	innerIndex engine.Index, innerGroups [][]interval.Tuple, d0 int, parallelism int,
	spill *engine.SpillConfig) ([]envPair, joinPhaseInfo, error) {

	// Matches share their depth-d0 ancestor environment, so the key prefix
	// leads the comparator.
	cmp := func(ka interval.Key, a []interval.Tuple, kb interval.Key, b []interval.Tuple) int {
		if c := ka.ComparePrefix(kb, d0); c != 0 {
			return c
		}
		return engine.CompareForests(a, b)
	}
	// Each side gets its own result slots and stats block; the comparator
	// and the external sorter touch no shared mutable state.
	keys := [2]engine.Index{outerIndex, innerIndex}
	groups := [2][][]interval.Tuple{outerGroups, innerGroups}
	var orders [2][]int
	var stats [2]engine.SpillStats
	var errs [2]error
	info := joinPhaseInfo{partitions: 1}
	info.workers = exec.Run(2, parallelism, func(side, _ int) {
		orders[side], errs[side] = engine.SortUnits(keys[side], groups[side], cmp, max(1, parallelism/2), spill, &stats[side])
	})
	info.spill = engine.SpillStats{Runs: stats[0].Runs + stats[1].Runs, Bytes: stats[0].Bytes + stats[1].Bytes}
	for _, err := range errs {
		if err != nil {
			return nil, info, err
		}
	}

	pairs, probeWorkers, partitions := probeMerge(orders[0], orders[1], parallelism, func(o, i int) int {
		return cmp(outerIndex[o], outerGroups[o], innerIndex[i], innerGroups[i])
	})
	info.workers = max(info.workers, probeWorkers)
	info.partitions = partitions
	slices.SortFunc(pairs, func(a, b envPair) int {
		if a.outer != b.outer {
			return a.outer - b.outer
		}
		return a.inner - b.inner
	})
	return pairs, info, nil
}

// probeMerge runs the merge-join probe over the two sorted position
// sequences and returns the matching pairs (in per-partition emission
// order — the caller's final (outer, inner) sort fixes document order),
// the number of workers that participated and the partition count.
//
// With parallelism >= 2 the sorted outer splits into contiguous
// equal-width partitions and each worker probes one partition against the
// inner independently: it binary-searches the first inner position not
// below its first outer element and runs the serial merge loop from
// there, clipped to its outer range. The pair set is partition-
// independent: an outer equal-run split across a partition boundary is
// probed by both workers, and each re-finds the full inner equal-run for
// its own outer elements, so the union of the per-partition cross
// products is exactly the serial cross product. Partition boundaries
// depend only on the input length and the budget-clamped parallelism
// (exec.Effective), and output order is fixed by the caller's sort, so
// the result is digit-identical to the serial probe at any worker grant.
func probeMerge(outerOrder, innerOrder []int, parallelism int, cmp func(o, i int) int) ([]envPair, int, int) {
	par := exec.Effective(parallelism)
	if par < 2 || len(outerOrder) < ParallelProbeThreshold {
		pairs := probeRange(outerOrder, innerOrder, cmp)
		obs.ProbePairs.With(exec.WorkerLabel(0)).Add(int64(len(pairs)))
		return pairs, 1, 1
	}
	nparts := par
	chunk := (len(outerOrder) + nparts - 1) / nparts
	outs := make([][]envPair, nparts)
	workers := exec.Run(nparts, par, func(task, worker int) {
		lo := task * chunk
		hi := min(lo+chunk, len(outerOrder))
		if lo >= hi {
			return
		}
		// First inner position not below the partition's first outer
		// element; everything before it can only match earlier partitions.
		first := outerOrder[lo]
		ii := sort.Search(len(innerOrder), func(k int) bool {
			return cmp(first, innerOrder[k]) <= 0
		})
		outs[task] = probeRange(outerOrder[lo:hi], innerOrder[ii:], cmp)
		obs.ProbePairs.With(exec.WorkerLabel(worker)).Add(int64(len(outs[task])))
	})
	total := 0
	for _, out := range outs {
		total += len(out)
	}
	pairs := make([]envPair, 0, total)
	for _, out := range outs {
		pairs = append(pairs, out...)
	}
	return pairs, workers, nparts
}

// probeRange is the serial merge-join probe loop over one outer range.
func probeRange(outerOrder, innerOrder []int, cmp func(o, i int) int) []envPair {
	var pairs []envPair
	oi, ii := 0, 0
	for oi < len(outerOrder) && ii < len(innerOrder) {
		c := cmp(outerOrder[oi], innerOrder[ii])
		switch {
		case c < 0:
			oi++
		case c > 0:
			ii++
		default:
			// Find the equal runs on both sides.
			oEnd := oi + 1
			for oEnd < len(outerOrder) && cmp(outerOrder[oEnd], innerOrder[ii]) == 0 {
				oEnd++
			}
			iEnd := ii + 1
			for iEnd < len(innerOrder) && cmp(outerOrder[oi], innerOrder[iEnd]) == 0 {
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

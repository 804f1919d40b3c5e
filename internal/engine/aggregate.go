package engine

import (
	"slices"

	"dixq/internal/interval"
	"dixq/internal/xnum"
)

// This file implements the value-level operators added for the full XMark
// workload: numeric aggregation (sum/avg/min/max), binary arithmetic,
// positional take/drop, value comparison and order-by reordering. Their
// semantics mirror the xfn specification functions exactly — the shared
// xnum parsing/formatting rules are what keep the engines digit-identical
// with the interpreter and the SQL oracle.

// numericRootsOf collects the top-level root labels of an environment group
// that parse as numbers, in document order — the value sequence the
// aggregates reduce (the data-level twin of xfn's numericRoots).
func numericRootsOf(g []interval.Tuple) []float64 {
	var vals []float64
	for _, tree := range topTrees(g) {
		if v, ok := xnum.Parse(tree[0].S); ok {
			vals = append(vals, v)
		}
	}
	return vals
}

// Aggregate emits, for every environment of the index, at most one text
// tuple holding the named aggregate (sum, avg, min or max) of the numeric
// top-level root labels of that environment's forest. sum always emits
// ("0" over no numerics, fn:sum's empty-sequence rule); avg, min and max
// emit nothing for environments without numeric roots.
func Aggregate(index Index, depth int, kind string, rel *interval.Relation) *interval.Relation {
	b := interval.NewBuilder(depth+1, len(index))
	forEachEnv(index, depth, rel.Tuples, func(env interval.Key, g []interval.Tuple) {
		vals := numericRootsOf(g)
		var out float64
		switch kind {
		case "sum":
			for _, v := range vals {
				out += v
			}
		case "avg":
			if len(vals) == 0 {
				return
			}
			for _, v := range vals {
				out += v
			}
			out /= float64(len(vals))
		case "min", "max":
			if len(vals) == 0 {
				return
			}
			out = vals[0]
			for _, v := range vals[1:] {
				if (kind == "min") == (v < out) {
					out = v
				}
			}
		}
		b.SetBase(env, depth)
		b.Emit(xnum.Format(out), 0, 1)
	})
	return b.Relation()
}

// Arith emits, for every environment of the index, one text tuple holding
// l op r where l and r are the first top-level root labels of the two
// (atomized) input forests coerced to numbers — non-numbers read as 0,
// and environments where either side is empty emit nothing (mirroring
// xfn.Arith).
func Arith(index Index, depth int, op string, a, b *interval.Relation) *interval.Relation {
	out := interval.NewBuilder(depth+1, len(index))
	forEachEnv2(index, depth, a.Tuples, b.Tuples, func(env interval.Key, ga, gb []interval.Tuple) {
		if len(ga) == 0 || len(gb) == 0 {
			return
		}
		l := xnum.ParseOrZero(ga[0].S)
		r := xnum.ParseOrZero(gb[0].S)
		out.SetBase(env, depth)
		out.Emit(xnum.Format(xnum.Arith(op, l, r)), 0, 1)
	})
	return out.Relation()
}

// Take keeps the first n top-level trees of each environment's forest,
// original intervals unchanged — the positional-predicate operator.
func Take(rel *interval.Relation, depth int, n int64) *interval.Relation {
	out := &interval.Relation{}
	if n <= 0 {
		return out
	}
	forEachGroup(rel.Tuples, depth, func(g []interval.Tuple) {
		trees := topTrees(g)
		for _, tree := range trees[:min(n, int64(len(trees)))] {
			out.Tuples = append(out.Tuples, tree...)
		}
	})
	return out
}

// Drop removes the first n top-level trees of each environment's forest,
// original intervals unchanged.
func Drop(rel *interval.Relation, depth int, n int64) *interval.Relation {
	if n <= 0 {
		return rel
	}
	out := &interval.Relation{}
	forEachGroup(rel.Tuples, depth, func(g []interval.Tuple) {
		trees := topTrees(g)
		for _, tree := range trees[min(n, int64(len(trees))):] {
			out.Tuples = append(out.Tuples, tree...)
		}
	})
	return out
}

// ordKeys extracts the order-by key parts of each encoded wrapper tree
// once, as one text tuple per part — the sort units of OrdBy. A tree's
// parts are the text content of each child of its first <#key> child, in
// order: the data-level twin of xfn's ordKey.
func ordKeys(trees [][]interval.Tuple) [][]interval.Tuple {
	parts := make([]interval.Tuple, 0, len(trees)) // one part per tree is the common case
	units := make([][]interval.Tuple, len(trees))
	for i, tree := range trees {
		start := len(parts)
		for _, child := range topTrees(tree[1:]) { // children of the wrapper root
			if child[0].S == "<#key>" {
				for _, part := range topTrees(child[1:]) {
					parts = append(parts, interval.Tuple{S: textOf(part)})
				}
				break
			}
		}
		units[i] = parts[start:]
	}
	return units
}

// OrdBy stably reorders each environment's top-level trees by their
// order-by key parts (see ordKeys) under the xnum value ordering — part by
// part, then shorter first — ascending or descending. Descending negates
// the key comparison only, so equal-key trees keep their original order:
// XQuery's stable ordering. Trees are renumbered with a leading position
// digit like SortTrees.
func OrdBy(rel *interval.Relation, depth int, dir string, parallelism int, spill *SpillConfig) (*interval.Relation, SpillStats, error) {
	return renumber(rel, depth, parallelism, spill, ordKeys,
		func(_ interval.Key, a []interval.Tuple, _ interval.Key, b []interval.Tuple) int {
			c := slices.CompareFunc(a, b, func(x, y interval.Tuple) int { return xnum.Compare(x.S, y.S) })
			if dir == "desc" {
				return -c
			}
			return c
		})
}

// ValueLessPerEnv evaluates the existential value comparison a < b for
// every environment of the index: true when some top-level root label of
// a's forest is value-less than some root label of b's. The xnum ordering
// is total, so comparing a's minimum against b's maximum suffices
// (mirroring xfn.CompareValue). One merge pass.
func ValueLessPerEnv(index Index, depth int, a, b *interval.Relation) []bool {
	out := make([]bool, 0, len(index))
	forEachEnv2(index, depth, a.Tuples, b.Tuples, func(_ interval.Key, ga, gb []interval.Tuple) {
		ta, tb := topTrees(ga), topTrees(gb)
		if len(ta) == 0 || len(tb) == 0 {
			out = append(out, false)
			return
		}
		min := ta[0][0].S
		for _, tree := range ta[1:] {
			if xnum.Less(tree[0].S, min) {
				min = tree[0].S
			}
		}
		max := tb[0][0].S
		for _, tree := range tb[1:] {
			if xnum.Less(max, tree[0].S) {
				max = tree[0].S
			}
		}
		out = append(out, xnum.Less(min, max))
	})
	return out
}

package engine

import (
	"dixq/internal/interval"
	"dixq/internal/xfn"
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
	for _, r := range treeRanges(g) {
		if v, ok := xnum.Parse(g[r[0]].S); ok {
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
		ranges := treeRanges(g)
		if int64(len(ranges)) > n {
			ranges = ranges[:n]
		}
		out.Tuples = append(out.Tuples, g[:ranges[len(ranges)-1][1]]...)
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
		ranges := treeRanges(g)
		if int64(len(ranges)) <= n {
			return
		}
		out.Tuples = append(out.Tuples, g[ranges[n][0]:]...)
	})
	return out
}

// ordKeyOf extracts the order-by key parts of one encoded wrapper tree:
// the text content of each child of the tree's first <#key> child, in
// order — the data-level twin of xfn's ordKey.
func ordKeyOf(tree []interval.Tuple) []string {
	body := tree[1:] // children of the wrapper root
	for _, kr := range treeRanges(body) {
		child := body[kr[0]:kr[1]]
		if child[0].S != "<#key>" {
			continue
		}
		inner := child[1:]
		ranges := treeRanges(inner)
		parts := make([]string, len(ranges))
		for i, pr := range ranges {
			parts[i] = textOf(inner[pr[0]:pr[1]])
		}
		return parts
	}
	return nil
}

// OrdBy stably reorders each environment's top-level trees by their
// order-by key parts (see ordKeyOf) under the xnum value ordering,
// ascending or descending. Descending negates the key comparison only, so
// equal-key trees keep their original order — XQuery's stable ordering.
// Trees are renumbered with a leading position digit like SortTrees.
func OrdBy(rel *interval.Relation, depth int, dir string) *interval.Relation {
	b := interval.NewBuilder(depth+1+localWidth(rel, depth), len(rel.Tuples))
	forEachGroup(rel.Tuples, depth, func(g []interval.Tuple) {
		ranges := treeRanges(g)
		keys := make([][]string, len(ranges))
		for i, r := range ranges {
			keys[i] = ordKeyOf(g[r[0]:r[1]])
		}
		order := interval.SortPerm(len(ranges), 1, func(i, j int) int {
			c := xfn.OrdKeyCompare(keys[i], keys[j])
			if dir == "desc" {
				c = -c
			}
			return c
		})
		prefix := g[0].L
		for j, idx := range order {
			emitTree(b, prefix, depth, int64(j), g[ranges[idx][0]:ranges[idx][1]])
		}
	})
	return b.Relation()
}

// ValueLessPerEnv evaluates the existential value comparison a < b for
// every environment of the index: true when some top-level root label of
// a's forest is value-less than some root label of b's. The xnum ordering
// is total, so comparing a's minimum against b's maximum suffices
// (mirroring xfn.CompareValue). One merge pass.
func ValueLessPerEnv(index Index, depth int, a, b *interval.Relation) []bool {
	out := make([]bool, 0, len(index))
	forEachEnv2(index, depth, a.Tuples, b.Tuples, func(_ interval.Key, ga, gb []interval.Tuple) {
		ra, rb := treeRanges(ga), treeRanges(gb)
		if len(ra) == 0 || len(rb) == 0 {
			out = append(out, false)
			return
		}
		min := ga[ra[0][0]].S
		for _, r := range ra[1:] {
			if xnum.Less(ga[r[0]].S, min) {
				min = ga[r[0]].S
			}
		}
		max := gb[rb[0][0]].S
		for _, r := range rb[1:] {
			if xnum.Less(max, gb[r[0]].S) {
				max = gb[r[0]].S
			}
		}
		out = append(out, xnum.Less(min, max))
	})
	return out
}

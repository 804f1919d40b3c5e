package engine

import (
	"strconv"

	"dixq/internal/interval"
	"dixq/internal/xmltree"
)

// The operators in this file that derive new keys (Reverse, SortTrees,
// SubtreesDFS, Construct, Concat, Count) build their output through
// interval.Builder: all digits of the derived relation go into one shared
// fixed-stride buffer instead of one heap allocation per key. The stride
// is the bound on output key length — environment depth plus the input's
// physical local width, the quantity the compile-time width inference of
// Section 4.3 tracks symbolically.

// The operators that keep a subsequence of their input's tuples unchanged
// (Roots, Children, SelectLabel, SelectText, Data, Head, Tail and Distinct
// here, Take and Drop in aggregate.go) record the kept rows as
// interval.Runs: the output is a view of the input when it is one run, and
// otherwise one exactly sized copy.

// Roots is the roots-extraction operator of Algorithm 5.2: it keeps the
// tuples not strictly contained in any other interval. With dynamic
// intervals the single pass needs no environment awareness at all — tuples
// of later environments always start after every earlier interval has
// closed — which is the property the paper exploits. O(n) time, O(1) space.
func Roots(rel *interval.Relation) *interval.Relation {
	return rootsOrChildren(rel, true)
}

// Children keeps the tuples strictly contained in some other interval —
// the complement of Roots, encoding the concatenated child forests.
func Children(rel *interval.Relation) *interval.Relation {
	return rootsOrChildren(rel, false)
}

func rootsOrChildren(rel *interval.Relation, roots bool) *interval.Relation {
	var runs interval.Runs
	var max interval.Key
	haveMax := false
	for i, t := range rel.Tuples {
		isRoot := !haveMax || interval.Compare(t.L, max) > 0
		if isRoot {
			max = t.R
			haveMax = true
		}
		if isRoot == roots {
			runs.Add(i, i+1)
		}
	}
	return &interval.Relation{Tuples: runs.Of(rel.Tuples)}
}

// SelectLabel keeps the top-level trees whose root label equals label,
// subtrees included. One pass.
func SelectLabel(label string, rel *interval.Relation) *interval.Relation {
	return selectRoots(rel, func(s string) bool { return s == label })
}

// SelectText keeps the top-level trees whose root is a text node under the
// labeling convention — the text() step over a child-projected forest.
func SelectText(rel *interval.Relation) *interval.Relation {
	return selectRoots(rel, func(s string) bool {
		return (&xmltree.Node{Label: s}).Kind() == xmltree.Text
	})
}

func selectRoots(rel *interval.Relation, keep func(label string) bool) *interval.Relation {
	var runs interval.Runs
	var max interval.Key
	haveMax := false
	keeping := false
	for i, t := range rel.Tuples {
		if !haveMax || interval.Compare(t.L, max) > 0 {
			max = t.R
			haveMax = true
			keeping = keep(t.S)
		}
		if keeping {
			runs.Add(i, i+1)
		}
	}
	return &interval.Relation{Tuples: runs.Of(rel.Tuples)}
}

// Data keeps the text-labeled tuples — the atomized value forest. Text
// nodes are leaves, so the surviving intervals are pairwise disjoint and
// the result is a valid encoding of the forest of text values.
func Data(rel *interval.Relation) *interval.Relation {
	var runs interval.Runs
	for i, t := range rel.Tuples {
		if (&xmltree.Node{Label: t.S}).Kind() == xmltree.Text {
			runs.Add(i, i+1)
		}
	}
	return &interval.Relation{Tuples: runs.Of(rel.Tuples)}
}

// Head keeps the first top-level tree of each environment's forest.
func Head(rel *interval.Relation, depth int) *interval.Relation { return Take(rel, depth, 1) }

// Tail drops the first top-level tree of each environment's forest.
func Tail(rel *interval.Relation, depth int) *interval.Relation { return Drop(rel, depth, 1) }

// topTrees splits an environment group into its top-level trees: each
// root with the tuples its interval contains.
func topTrees(g []interval.Tuple) [][]interval.Tuple {
	var trees [][]interval.Tuple
	for i := 0; i < len(g); {
		end := i + 1
		for end < len(g) && interval.Compare(g[end].L, g[i].R) <= 0 {
			end++
		}
		trees = append(trees, g[i:end])
		i = end
	}
	return trees
}

// localWidth returns the largest physical key length beyond depth — the
// data-level counterpart of the local width the compile-time analysis
// bounds, and the quantity that fixes a builder's stride.
func localWidth(rel *interval.Relation, depth int) int {
	return max(0, rel.MaxKeyLen()-depth)
}

// emitTree appends one top-level tree with a fresh position digit inserted
// between the environment prefix and the original local part, implementing
// the renumbering used by reverse, sort and subtrees-dfs. The output local
// width grows by one digit.
func emitTree(b *interval.Builder, prefix interval.Key, depth int, pos int64, tree []interval.Tuple) {
	b.SetBase(prefix, depth)
	b.PushBaseDigit(pos)
	for _, t := range tree {
		b.Rebase(t.S, t.L, t.R, depth)
	}
}

// Reverse reverses the top-level tree order of each environment's forest.
// Trees are renumbered with a leading position digit (output local width =
// input width + 1).
func Reverse(rel *interval.Relation, depth int) *interval.Relation {
	b := interval.NewBuilder(depth+1+localWidth(rel, depth), len(rel.Tuples))
	forEachGroup(rel.Tuples, depth, func(g []interval.Tuple) {
		trees := topTrees(g)
		for j := range trees {
			emitTree(b, g[0].L, depth, int64(j), trees[len(trees)-1-j])
		}
	})
	return b.Relation()
}

// The group reorders — SortTrees, Distinct and OrdBy — share one shape:
// per environment group, build the sort units, take their stable
// permutation from the budgeted sort (SortUnits, which spills runs of
// sorted positions to disk under a memory budget) and emit by it. Output
// is identical at any budget; the stats report what was spilled.
// O(k log k) unit comparisons per environment.

// sortGroups runs one budgeted sort per environment group of rel. The sort
// units are the group's top-level trees, or the units keyOf derives from
// them, ordered by cmp; emit receives the group's environment prefix, its
// trees and their stable permutation.
func sortGroups(rel *interval.Relation, depth int, spill *SpillConfig,
	keyOf func(trees [][]interval.Tuple) [][]interval.Tuple, cmp func(a, b []interval.Tuple) int,
	emit func(prefix interval.Key, trees [][]interval.Tuple, order []int)) (SpillStats, error) {

	var stats SpillStats
	var err error
	forEachGroup(rel.Tuples, depth, func(g []interval.Tuple) {
		if err != nil {
			return
		}
		trees := topTrees(g)
		units := trees
		if keyOf != nil {
			units = keyOf(trees)
		}
		var order []int
		byPos := func(a, b int) int { return cmp(units[a], units[b]) }
		if order, err = SortUnits(nil, units, byPos, spill, &stats); err == nil {
			emit(g[0].L, trees, order)
		}
	})
	return stats, err
}

// renumber is sortGroups emitting each group's trees in permutation order,
// renumbered with a leading position digit (output local width = input
// width + 1).
func renumber(rel *interval.Relation, depth int, spill *SpillConfig,
	keyOf func(trees [][]interval.Tuple) [][]interval.Tuple, cmp func(a, b []interval.Tuple) int) (*interval.Relation, SpillStats, error) {

	b := interval.NewBuilder(depth+1+localWidth(rel, depth), len(rel.Tuples))
	stats, err := sortGroups(rel, depth, spill, keyOf, cmp,
		func(prefix interval.Key, trees [][]interval.Tuple, order []int) {
			for j, idx := range order {
				emitTree(b, prefix, depth, int64(j), trees[idx])
			}
		})
	if err != nil {
		return nil, stats, err
	}
	return b.Relation(), stats, nil
}

// SortTrees orders each environment's top-level trees by structural (tree)
// order, stably, using CompareForests — the paper's sort operator. Trees
// are renumbered with a leading position digit.
func SortTrees(rel *interval.Relation, depth int, spill *SpillConfig) (*interval.Relation, SpillStats, error) {
	return renumber(rel, depth, spill, nil, CompareForests)
}

// Distinct keeps the structurally distinct top-level trees of each
// environment's forest, first occurrence preserved, original intervals
// unchanged.
func Distinct(rel *interval.Relation, depth int, spill *SpillConfig) (*interval.Relation, SpillStats, error) {
	var runs interval.Runs
	at := 0 // position of the group's first tree in rel
	stats, err := sortGroups(rel, depth, spill, nil, CompareForests,
		func(_ interval.Key, trees [][]interval.Tuple, order []int) {
			// The permutation is stable, so the first tree of each equal
			// run is the earliest duplicate.
			keep := make([]bool, len(trees))
			for i, idx := range order {
				keep[idx] = i == 0 || CompareForests(trees[order[i-1]], trees[idx]) != 0
			}
			for idx, tree := range trees {
				if keep[idx] {
					runs.Add(at, at+len(tree))
				}
				at += len(tree)
			}
		})
	if err != nil {
		return nil, stats, err
	}
	return &interval.Relation{Tuples: runs.Of(rel.Tuples)}, stats, nil
}

// SubtreesDFS emits, for every node of every environment's forest, the
// subtree rooted at that node, in depth-first order, renumbered with a
// leading position digit. Quadratic in the worst case (the paper's
// w_subtreesdfs = w² width bound reflects the same blow-up).
func SubtreesDFS(rel *interval.Relation, depth int) *interval.Relation {
	b := interval.NewBuilder(depth+1+localWidth(rel, depth), len(rel.Tuples))
	forEachGroup(rel.Tuples, depth, func(g []interval.Tuple) {
		prefix := g[0].L
		for i, t := range g {
			end := i + 1
			for end < len(g) && interval.Compare(g[end].L, t.R) < 0 {
				end++
			}
			emitTree(b, prefix, depth, int64(i), g[i:end])
		}
	})
	return b.Relation()
}

// SubtreesAt emits the rows of every range of rel renumbered under the
// position digit pos[i], exactly as SubtreesDFS emits the subtree at
// position pos[i] of a depth-0 forest: keys [pos[i]] ++ L and
// [pos[i]] ++ R. It serves an index-resolved select over subtrees-dfs
// (index.Resolve's descendant step), which knows the selected subtrees and
// their positions without enumerating the others. The stride covers rel's
// widest key, so it bounds every output key.
func SubtreesAt(rel *interval.Relation, ranges [][2]int32, pos []int64) *interval.Relation {
	rows := 0
	for _, r := range ranges {
		rows += int(r[1] - r[0])
	}
	b := interval.NewBuilder(1+rel.MaxKeyLen(), rows)
	for i, r := range ranges {
		emitTree(b, nil, 0, pos[i], rel.Tuples[r[0]:r[1]])
	}
	return b.Relation()
}

// Construct is the XNode element-constructor template (Section 4.1): for
// every environment of the index it wraps that environment's forest under
// a fresh root labeled label. Child tuples have their first local digit
// shifted by +1; the new root spans them. Environments with empty forests
// still produce a (leaf) root, which is why the operator needs the index.
func Construct(index Index, depth int, label string, rel *interval.Relation) *interval.Relation {
	stride := depth + 1
	if w := localWidth(rel, depth); depth+w > stride {
		stride = depth + w
	}
	b := interval.NewBuilder(stride, len(rel.Tuples)+len(index))
	forEachEnv(index, depth, rel.Tuples, func(env interval.Key, g []interval.Tuple) {
		b.SetBase(env, depth)
		root := b.Emit(label, 0, 0)
		var maxFirst int64
		for _, t := range g {
			b.RebaseShift(t.S, t.L, t.R, depth, 1)
			if d := t.R.Digit(depth) + 1; d > maxFirst {
				maxFirst = d
			}
		}
		b.SetRTail(root, maxFirst+1)
	})
	return b.Relation()
}

// Concat is the @ operator: per environment, the second forest is shifted
// past the first by bumping its first local digit with a per-environment
// offset computed in the same merge pass. One pass over both inputs.
func Concat(index Index, depth int, a, b *interval.Relation) *interval.Relation {
	stride := depth + 1
	if w := localWidth(b, depth); depth+w > stride {
		stride = depth + w
	}
	out := interval.NewBuilder(stride, len(a.Tuples)+len(b.Tuples))
	posB := 0
	forEachEnv(index, depth, a.Tuples, func(env interval.Key, ga []interval.Tuple) {
		var shift int64
		for _, t := range ga {
			out.Add(t)
			if d := t.R.Digit(depth) + 1; d > shift {
				shift = d
			}
		}
		for posB < len(b.Tuples) && prefixCmp(b.Tuples[posB].L, env, depth) < 0 {
			posB++
		}
		if shift != 0 {
			out.SetBase(env, depth)
		}
		for posB < len(b.Tuples) && prefixCmp(b.Tuples[posB].L, env, depth) == 0 {
			t := b.Tuples[posB]
			if shift == 0 {
				out.Add(t)
			} else {
				out.RebaseShift(t.S, t.L, t.R, depth, shift)
			}
			posB++
		}
	})
	return out.Relation()
}

// Count emits, for every environment of the index, a single text tuple
// holding the decimal number of top-level trees in that environment's
// forest — the count() aggregate of the XMark queries.
func Count(index Index, depth int, rel *interval.Relation) *interval.Relation {
	b := interval.NewBuilder(depth+1, len(index))
	forEachEnv(index, depth, rel.Tuples, func(env interval.Key, g []interval.Tuple) {
		n := 0
		var max interval.Key
		haveMax := false
		for _, t := range g {
			if !haveMax || interval.Compare(t.L, max) > 0 {
				max = t.R
				haveMax = true
				n++
			}
		}
		b.SetBase(env, depth)
		b.Emit(strconv.Itoa(n), 0, 1)
	})
	return b.Relation()
}

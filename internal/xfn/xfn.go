// Package xfn implements the basic operations on XML forests of Figure 2
// of the paper, plus the count and data extensions used by the XMark
// queries. These functions are the semantic specification: the reference
// interpreter applies them directly, and the relational engine's operators
// are tested against them.
package xfn

import (
	"slices"
	"sort"
	"strconv"

	"dixq/internal/xmltree"
	"dixq/internal/xnum"
)

// Node wraps a forest under a new root with the given (already decorated)
// label — the XNode constructor.
func Node(label string, f xmltree.Forest) xmltree.Forest {
	return xmltree.Forest{{Label: label, Children: f}}
}

// Concat is forest concatenation, the @ operator.
func Concat(a, b xmltree.Forest) xmltree.Forest {
	return a.Concat(b)
}

// Head returns the first tree of the forest, or the empty forest.
func Head(f xmltree.Forest) xmltree.Forest {
	if len(f) == 0 {
		return nil
	}
	return f[:1]
}

// Tail returns all but the first tree of the forest.
func Tail(f xmltree.Forest) xmltree.Forest {
	if len(f) == 0 {
		return nil
	}
	return f[1:]
}

// Reverse returns the forest with its top-level trees in reverse order.
func Reverse(f xmltree.Forest) xmltree.Forest {
	out := make(xmltree.Forest, len(f))
	for i, n := range f {
		out[len(f)-1-i] = n
	}
	return out
}

// Select returns the subforest of trees whose root label equals label.
func Select(label string, f xmltree.Forest) xmltree.Forest {
	var out xmltree.Forest
	for _, n := range f {
		if n.Label == label {
			out = append(out, n)
		}
	}
	return out
}

// Distinct returns the subforest of structurally distinct trees, keeping
// the first occurrence of each.
func Distinct(f xmltree.Forest) xmltree.Forest {
	var out xmltree.Forest
	for _, n := range f {
		dup := false
		for _, m := range out {
			if (xmltree.Forest{m}).Equal(xmltree.Forest{n}) {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, n)
		}
	}
	return out
}

// Sort returns the forest with its trees ordered by structural (tree)
// order. The sort is stable.
func Sort(f xmltree.Forest) xmltree.Forest {
	out := make(xmltree.Forest, len(f))
	copy(out, f)
	sort.SliceStable(out, func(i, j int) bool {
		return (xmltree.Forest{out[i]}).Compare(xmltree.Forest{out[j]}) < 0
	})
	return out
}

// Roots returns the forest of root nodes, stripped of their subtrees.
func Roots(f xmltree.Forest) xmltree.Forest {
	out := make(xmltree.Forest, len(f))
	for i, n := range f {
		out[i] = &xmltree.Node{Label: n.Label}
	}
	return out
}

// Children returns the concatenation of the child forests of all roots, in
// original order.
func Children(f xmltree.Forest) xmltree.Forest {
	var out xmltree.Forest
	for _, n := range f {
		out = append(out, n.Children...)
	}
	return out
}

// SubtreesDFS returns the forest of all subtrees in depth-first order:
// every node of f contributes the subtree rooted at it.
func SubtreesDFS(f xmltree.Forest) xmltree.Forest {
	var out xmltree.Forest
	var walk func(xmltree.Forest)
	walk = func(fs xmltree.Forest) {
		for _, n := range fs {
			out = append(out, n)
			walk(n.Children)
		}
	}
	walk(f)
	return out
}

// Data returns the text leaves of the forest, in document order, each
// becoming a root — the atomization used by value comparisons.
func Data(f xmltree.Forest) xmltree.Forest {
	var out xmltree.Forest
	var walk func(xmltree.Forest)
	walk = func(fs xmltree.Forest) {
		for _, n := range fs {
			if n.Kind() == xmltree.Text {
				out = append(out, n)
			}
			walk(n.Children)
		}
	}
	walk(f)
	return out
}

// SelText returns the subforest of trees whose root is a text node — the
// text() path step over an already child-projected forest.
func SelText(f xmltree.Forest) xmltree.Forest {
	var out xmltree.Forest
	for _, n := range f {
		if n.Kind() == xmltree.Text {
			out = append(out, n)
		}
	}
	return out
}

// Count returns a single text node holding the decimal number of trees in
// the forest.
func Count(f xmltree.Forest) xmltree.Forest {
	return xmltree.Forest{xmltree.NewText(strconv.Itoa(len(f)))}
}

// Take returns the first n top-level trees of the forest (all of them
// when n exceeds the tree count, none when n <= 0).
func Take(n int64, f xmltree.Forest) xmltree.Forest {
	if n <= 0 {
		return nil
	}
	if n >= int64(len(f)) {
		return f
	}
	return f[:n]
}

// Drop returns all but the first n top-level trees of the forest.
func Drop(n int64, f xmltree.Forest) xmltree.Forest {
	if n <= 0 {
		return f
	}
	if n >= int64(len(f)) {
		return nil
	}
	return f[n:]
}

// numericRoots collects the root labels of the forest's top-level trees
// that parse as numbers — the value sequence the aggregates reduce.
func numericRoots(f xmltree.Forest) []float64 {
	var vals []float64
	for _, n := range f {
		if v, ok := xnum.Parse(n.Label); ok {
			vals = append(vals, v)
		}
	}
	return vals
}

// Sum returns a single text node holding the sum of the numeric root
// labels of the forest's trees ("0" when none are numeric, following
// fn:sum's empty-sequence rule).
func Sum(f xmltree.Forest) xmltree.Forest {
	var s float64
	for _, v := range numericRoots(f) {
		s += v
	}
	return xmltree.Forest{xmltree.NewText(xnum.Format(s))}
}

// Avg returns a single text node holding the average of the numeric root
// labels, or the empty forest when none are numeric.
func Avg(f xmltree.Forest) xmltree.Forest {
	vals := numericRoots(f)
	if len(vals) == 0 {
		return nil
	}
	var s float64
	for _, v := range vals {
		s += v
	}
	return xmltree.Forest{xmltree.NewText(xnum.Format(s / float64(len(vals))))}
}

// Min returns a single text node holding the minimum numeric root label,
// or the empty forest when none are numeric.
func Min(f xmltree.Forest) xmltree.Forest {
	return extremum(f, func(v, best float64) bool { return v < best })
}

// Max returns a single text node holding the maximum numeric root label,
// or the empty forest when none are numeric.
func Max(f xmltree.Forest) xmltree.Forest {
	return extremum(f, func(v, best float64) bool { return v > best })
}

func extremum(f xmltree.Forest, better func(v, best float64) bool) xmltree.Forest {
	vals := numericRoots(f)
	if len(vals) == 0 {
		return nil
	}
	best := vals[0]
	for _, v := range vals[1:] {
		if better(v, best) {
			best = v
		}
	}
	return xmltree.Forest{xmltree.NewText(xnum.Format(best))}
}

// Arith applies one binary arithmetic operator to the first trees of two
// (atomized) forests: each side contributes its first root label coerced
// to a number (non-numbers read as 0), and either side being empty makes
// the result empty. Division is IEEE float division (x div 0 is a signed
// infinity, 0 div 0 is NaN), formatted deterministically by xnum.Format.
func Arith(op string, a, b xmltree.Forest) xmltree.Forest {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	l := xnum.ParseOrZero(a[0].Label)
	r := xnum.ParseOrZero(b[0].Label)
	return xmltree.Forest{xmltree.NewText(xnum.Format(xnum.Arith(op, l, r)))}
}

// CompareValue is the existential typed value comparison backing the
// parser's <, >, <=, >= desugar: it holds when some top-level root label
// of a is value-less (xnum ordering) than some top-level root label of b.
// Since the ordering is total, it suffices to compare a's minimum against
// b's maximum.
func CompareValue(a, b xmltree.Forest) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	min := a[0].Label
	for _, n := range a[1:] {
		if xnum.Less(n.Label, min) {
			min = n.Label
		}
	}
	max := b[0].Label
	for _, n := range b[1:] {
		if xnum.Less(max, n.Label) {
			max = n.Label
		}
	}
	return xnum.Less(min, max)
}

// ordKey extracts the order-by key parts of one wrapper tree: the text
// content of each child of the tree's first <#key> child, in order. Trees
// without a <#key> child (possible only for hand-built inputs, not the
// parser's desugar) have no parts and sort first.
func ordKey(t *xmltree.Node) []string {
	for _, c := range t.Children {
		if c.Label == "<#key>" {
			parts := make([]string, len(c.Children))
			for i, part := range c.Children {
				parts[i] = textContent(part)
			}
			return parts
		}
	}
	return nil
}

// textContent concatenates the text-leaf labels under n, in order.
func textContent(n *xmltree.Node) string {
	var b []byte
	var walk func(*xmltree.Node)
	walk = func(m *xmltree.Node) {
		if m.Kind() == xmltree.Text {
			b = append(b, m.Label...)
		}
		for _, c := range m.Children {
			walk(c)
		}
	}
	walk(n)
	return string(b)
}

// OrdBy stably reorders the forest's top-level trees by their order-by
// key parts (see ordKey) under the xnum value ordering — part by part,
// then shorter first — ascending or descending. Descending reverses the
// key comparison only — equal-key trees keep their original order, per
// XQuery's stable ordering.
func OrdBy(dir string, f xmltree.Forest) xmltree.Forest {
	keys := make([][]string, len(f))
	for i, t := range f {
		keys[i] = ordKey(t)
	}
	idx := make([]int, len(f))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, j int) bool {
		c := slices.CompareFunc(keys[idx[i]], keys[idx[j]], xnum.Compare)
		if dir == "desc" {
			return c > 0
		}
		return c < 0
	})
	out := make(xmltree.Forest, len(f))
	for i, k := range idx {
		out[i] = f[k]
	}
	return out
}

// Equal is the structural (tree) equality test of Figure 2.
func Equal(a, b xmltree.Forest) bool {
	return a.Equal(b)
}

// Less is the structural (tree) ordering test of Figure 2.
func Less(a, b xmltree.Forest) bool {
	return a.Compare(b) < 0
}

// Empty is the emptiness test of Figure 2.
func Empty(f xmltree.Forest) bool {
	return len(f) == 0
}

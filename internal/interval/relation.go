package interval

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"dixq/internal/xmltree"
)

// Tuple is one row of the ternary relation of Definition 3.1: a node label
// together with the left and right endpoints of its interval.
type Tuple struct {
	S    string
	L, R Key
}

func (t Tuple) String() string {
	return fmt.Sprintf("(%q, %s, %s)", t.S, t.L, t.R)
}

// Relation is an instance of the encoding relation X ⊆ String × Nat × Nat,
// kept sorted by L (document order). All engine operators consume and
// produce relations in this order.
type Relation struct {
	Tuples []Tuple

	// width memoizes MaxKeyLen as its value plus one; 0 means not yet
	// computed.
	width atomic.Int32
}

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.Tuples) }

// MaxKeyLen returns the relation's longest physical key length in digits
// (0 for the empty relation): the executor's runtime key width and the
// builder strides of the engine operators. Freshly encoded documents use
// one digit; relations that passed through package update may carry longer
// keys.
//
// The scan runs once per relation and the result is memoized, so the
// per-query readers of a catalog document — the executor's root
// environment first of all — pay O(1).
// Concurrent first readers may each scan; they store the same value. The
// memo is exact because a relation's tuple set never changes once it is
// read: catalog relations are immutable and shared, every update builds a
// new relation, and operators finish appending before they hand theirs
// out. Reordering in place (Sort) keeps the width.
func (r *Relation) MaxKeyLen() int {
	if w := r.width.Load(); w > 0 {
		return int(w - 1)
	}
	w := 0
	for _, t := range r.Tuples {
		w = max(w, len(t.L), len(t.R))
	}
	r.width.Store(int32(w + 1))
	return w
}

// Sort sorts the tuples by L key. Operators that construct output in
// document order need not call it.
func (r *Relation) Sort() {
	slices.SortFunc(r.Tuples, func(a, b Tuple) int { return Compare(a.L, b.L) })
}

// IsSorted reports whether the tuples are in L order.
func (r *Relation) IsSorted() bool {
	return slices.IsSortedFunc(r.Tuples, func(a, b Tuple) int { return Compare(a.L, b.L) })
}

// Clone returns a relation with a copied tuple slice, the only way to get
// rows that may be reordered in place (Sort). Relations are immutable and
// share more than keys: a filter-shaped operator's output may be a view of
// its input's tuple slice (Runs.Of), so the copied tuples still alias the
// keys.
func (r *Relation) Clone() *Relation {
	out := &Relation{Tuples: make([]Tuple, len(r.Tuples))}
	copy(out.Tuples, r.Tuples)
	return out
}

// String renders the relation as one tuple per line, for debugging and for
// the worked-example tests (Figures 4, 5 and 7 of the paper).
func (r *Relation) String() string {
	var b strings.Builder
	for _, t := range r.Tuples {
		fmt.Fprintf(&b, "%-34s %12s %12s\n", t.S, t.L, t.R)
	}
	return b.String()
}

// Encode produces the interval encoding of a forest by the depth-first
// counter algorithm of Example 3.2: a single incrementing counter assigns l
// on entry and r on exit, so the encoding of a forest with n nodes has
// width 2n. All keys have one digit.
func Encode(f xmltree.Forest) *Relation {
	r := &Relation{Tuples: make([]Tuple, 0, f.Size())}
	counter := int64(0)
	var walk func(xmltree.Forest)
	walk = func(fs xmltree.Forest) {
		for _, n := range fs {
			idx := len(r.Tuples)
			r.Tuples = append(r.Tuples, Tuple{S: n.Label, L: Key{counter}})
			counter++
			walk(n.Children)
			r.Tuples[idx].R = Key{counter}
			counter++
		}
	}
	walk(f)
	return r
}

// Width returns a width for a one-digit (freshly encoded) relation: one
// more than the largest first-digit endpoint, or 0 for the empty relation.
// Widths of derived relations are tracked symbolically by the planner; this
// accessor exists for the worked examples and the tests.
func (r *Relation) Width() int64 {
	var max int64 = -1
	for _, t := range r.Tuples {
		if d := t.R.Digit(0); d > max {
			max = d
		}
		if d := t.L.Digit(0); d > max {
			max = d
		}
	}
	return max + 1
}

// Decode reconstructs the forest represented by the relation. The relation
// must be a valid encoding (see Validate); tuples may be in any order. Node
// kinds are recovered from the label shape, which is all the information
// the encoding retains.
func Decode(r *Relation) (xmltree.Forest, error) {
	if err := Validate(r); err != nil {
		return nil, err
	}
	var root xmltree.Forest
	var stack []*xmltree.Node // the new node's ancestors
	r.Preorder()(func(depth int, label string) {
		n := &xmltree.Node{Label: label}
		if stack = stack[:depth]; depth == 0 {
			root = append(root, n)
		} else {
			stack[depth-1].Children = append(stack[depth-1].Children, n)
		}
		stack = append(stack, n)
	})
	return root, nil
}

// MustDecode is Decode for inputs known to be valid; it panics on error.
func MustDecode(r *Relation) xmltree.Forest {
	f, err := Decode(r)
	if err != nil {
		panic(err)
	}
	return f
}

// Validate checks the invariants of Definition 3.1: every tuple has l < r,
// and any two intervals are either disjoint or strictly nested (no shared
// endpoints, no partial overlap). A relation passing Validate encodes
// exactly one forest.
func Validate(r *Relation) error {
	var stack []Tuple
	var prevL Key
	for i, t := range sortedTuples(r) {
		if Compare(t.L, t.R) >= 0 {
			return fmt.Errorf("interval: tuple %s has l >= r", t)
		}
		if i > 0 && Compare(prevL, t.L) == 0 {
			return fmt.Errorf("interval: duplicate left endpoint %s", t.L)
		}
		prevL = t.L
		for len(stack) > 0 {
			top := stack[len(stack)-1]
			c := Compare(top.R, t.L)
			if c == 0 {
				return fmt.Errorf("interval: tuples %s and %s share endpoint %s", top, t, t.L)
			}
			if c < 0 {
				stack = stack[:len(stack)-1]
				continue
			}
			// top.L < t.L < top.R: t must nest strictly inside top.
			if Compare(t.R, top.R) >= 0 {
				return fmt.Errorf("interval: tuples %s and %s overlap without nesting", top, t)
			}
			break
		}
		stack = append(stack, t)
	}
	return nil
}

// sortedTuples returns the tuples in L order: r's own slice when it is
// sorted (every relation the encoder, the store and the operators produce
// is), else a sorted copy.
func sortedTuples(r *Relation) []Tuple {
	if r.IsSorted() {
		return r.Tuples
	}
	sorted := r.Clone()
	sorted.Sort()
	return sorted.Tuples
}

// Preorder returns the preorder walk of the forest the relation encodes,
// read off the interval nesting with a stack of open right endpoints.
func (r *Relation) Preorder() xmltree.Walk {
	return func(visit func(int, string)) {
		var open []Key
		for _, t := range sortedTuples(r) {
			for len(open) > 0 && Compare(open[len(open)-1], t.L) < 0 {
				open = open[:len(open)-1]
			}
			visit(len(open), t.S)
			open = append(open, t.R)
		}
	}
}

// Shape returns the number of top-level trees the relation encodes and
// the height of the tallest: 1 for a leaf, 0 for the empty relation.
func (r *Relation) Shape() (trees, depth int) {
	r.Preorder()(func(d int, _ string) {
		if d == 0 {
			trees++
		}
		depth = max(depth, d+1)
	})
	return trees, depth
}

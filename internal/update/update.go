// Package update implements document updates on interval encodings.
//
// The paper defers updates to dynamic labeling schemes (its citations
// [15, 16, 27] — Chen et al., Cohen/Kaplan/Milo, Tatarinov et al.); the
// digit-vector keys this implementation already uses for dynamic intervals
// double as exactly such a scheme: inserting a subtree between two
// existing keys never relabels anything — the new nodes receive keys that
// extend the predecessor key with additional digits, which lexicographic
// comparison orders correctly against every existing key. Deletion just
// drops the subtree's tuples.
//
// The operators address nodes by row and find the rows around the edit
// through the document's subtree ends (index.DocIndex.End: the subtree of
// row i is rows [i, End[i])), so the only key comparisons are the ones that
// pick the fresh keys. Each returns the new relation and the
// interval.Edit it made — one row-range replacement — from which the
// catalog splices the document's structural index and statistics. The
// cost is O(n) for the copy of the tuple slice: published relations are
// immutable.
//
// Repeated front-of-document insertions can require a negative leading
// digit (there is no room below key 0); such relations remain fully
// queryable but cannot be persisted by package store until Rebuild
// re-encodes them with the DFS counter.
package update

import (
	"errors"
	"fmt"

	"dixq/internal/interval"
	"dixq/internal/xmltree"
)

// ErrNotFound reports that the addressed node is not in the relation.
var ErrNotFound = errors.New("update: no such node")

// checkRow rejects a row outside the relation.
func checkRow(end []int32, row int) error {
	if row < 0 || row >= len(end) {
		return fmt.Errorf("%w: row %d of %d", ErrNotFound, row, len(end))
	}
	return nil
}

// parent returns the row of the parent of row, or -1 for a top-level
// node: the nearest preceding row whose subtree extends past row.
func parent(end []int32, row int) int {
	for p := row - 1; p >= 0; p-- {
		if int(end[p]) > row {
			return p
		}
	}
	return -1
}

// children returns the row range holding the children of p, or the
// top-level trees for p = -1.
func children(end []int32, p int) (first, bound int) {
	if p < 0 {
		return 0, len(end)
	}
	return p + 1, int(end[p])
}

// DeleteSubtree removes the subtree rooted at row, returning a new
// relation. The input is not modified.
func DeleteSubtree(rel *interval.Relation, end []int32, row int) (*interval.Relation, interval.Edit, error) {
	if err := checkRow(end, row); err != nil {
		return nil, interval.Edit{}, err
	}
	stop := int(end[row])
	out := &interval.Relation{Tuples: make([]interval.Tuple, 0, len(rel.Tuples)-(stop-row))}
	out.Tuples = append(out.Tuples, rel.Tuples[:row]...)
	out.Tuples = append(out.Tuples, rel.Tuples[stop:]...)
	return out, interval.Edit{At: row, Removed: stop - row}, nil
}

// InsertAfter inserts the forest as the following siblings of the node at
// row, returning a new relation.
func InsertAfter(rel *interval.Relation, end []int32, row int, f xmltree.Forest) (*interval.Relation, interval.Edit, error) {
	if err := checkRow(end, row); err != nil {
		return nil, interval.Edit{}, err
	}
	at := int(end[row])
	// The smallest existing key above the target's R is the next
	// sibling's L or, when the target is its parent's last child, the
	// parent's R: the new siblings must stay inside it.
	p := parent(end, row)
	var hi interval.Key
	if _, bound := children(end, p); at < bound {
		hi = rel.Tuples[at].L
	} else if p >= 0 {
		hi = rel.Tuples[p].R
	}
	out, e := spliceAt(rel, at, rel.Tuples[row].R, hi, f)
	return out, e, nil
}

// InsertBefore inserts the forest as the preceding siblings of the node at
// row.
func InsertBefore(rel *interval.Relation, end []int32, row int, f xmltree.Forest) (*interval.Relation, interval.Edit, error) {
	if err := checkRow(end, row); err != nil {
		return nil, interval.Edit{}, err
	}
	// The largest existing key below the target's L is the previous
	// sibling's R, else the parent's L, else nothing.
	p := parent(end, row)
	var lo interval.Key
	if p >= 0 {
		lo = rel.Tuples[p].L
	}
	for c, _ := children(end, p); c < row; c = int(end[c]) {
		lo = rel.Tuples[c].R
	}
	out, e := spliceAt(rel, row, lo, rel.Tuples[row].L, f)
	return out, e, nil
}

// AppendChild inserts the forest as the last children of the node at row.
func AppendChild(rel *interval.Relation, end []int32, row int, f xmltree.Forest) (*interval.Relation, interval.Edit, error) {
	if err := checkRow(end, row); err != nil {
		return nil, interval.Edit{}, err
	}
	// The predecessor of the parent's R is its last child's R, or its own
	// L when it has no children.
	lo := rel.Tuples[row].L
	first, bound := children(end, row)
	for c := first; c < bound; c = int(end[c]) {
		lo = rel.Tuples[c].R
	}
	out, e := spliceAt(rel, bound, lo, rel.Tuples[row].R, f)
	return out, e, nil
}

// PrependChild inserts the forest as the first children of the node at
// row.
func PrependChild(rel *interval.Relation, end []int32, row int, f xmltree.Forest) (*interval.Relation, interval.Edit, error) {
	if err := checkRow(end, row); err != nil {
		return nil, interval.Edit{}, err
	}
	hi := rel.Tuples[row].R // childless parent
	if row+1 < int(end[row]) {
		hi = rel.Tuples[row+1].L // first existing child
	}
	out, e := spliceAt(rel, row+1, rel.Tuples[row].L, hi, f)
	return out, e, nil
}

// ResolvePath returns the row of the node addressed by child ordinals:
// path[0] selects among the document's top-level trees, each further
// ordinal among the children of the node selected so far — so [0] is the
// first root and [0, 2] its third child. end is the document's subtree
// ends; each ordinal is a walk over sibling rows with End jumps.
func ResolvePath(end []int32, path []int) (int, error) {
	if len(path) == 0 {
		return 0, fmt.Errorf("update: empty path")
	}
	cur := -1
	for depth, ord := range path {
		if ord < 0 {
			return 0, fmt.Errorf("update: negative ordinal %d at path depth %d", ord, depth)
		}
		j, bound := children(end, cur)
		for k := 0; k < ord && j < bound; k++ {
			j = int(end[j])
		}
		if j >= bound {
			return 0, fmt.Errorf("%w: path %v has no child %d at depth %d", ErrNotFound, path, ord, depth)
		}
		cur = j
	}
	return cur, nil
}

// NeedsRebuild reports whether the relation carries a negative key digit.
// Repeated front-of-document inserts step below key 0 (see prefixBetween);
// such relations remain fully queryable but cannot be persisted by
// package store until Rebuild re-encodes them.
func NeedsRebuild(rel *interval.Relation) bool {
	for _, t := range rel.Tuples {
		for _, d := range t.L {
			if d < 0 {
				return true
			}
		}
		for _, d := range t.R {
			if d < 0 {
				return true
			}
		}
	}
	return false
}

// Rebuild re-encodes the relation with the dense single-digit DFS counter,
// clearing any key growth accumulated by updates. It fails if the relation
// is not a valid encoding.
func Rebuild(rel *interval.Relation) (*interval.Relation, error) {
	f, err := interval.Decode(rel)
	if err != nil {
		return nil, err
	}
	return interval.Encode(f), nil
}

// spliceAt inserts the forest's tuples at slice position idx with keys
// strictly between lo and hi (nil lo = below everything, nil hi = above
// everything).
func spliceAt(rel *interval.Relation, idx int, lo, hi interval.Key, f xmltree.Forest) (*interval.Relation, interval.Edit) {
	prefix := prefixBetween(lo, hi)
	enc := interval.Encode(f)
	fresh := make([]interval.Tuple, 0, enc.Len())
	for _, t := range enc.Tuples {
		fresh = append(fresh, interval.Tuple{
			S: t.S,
			L: prefix.Append(t.L.Digit(0) + 1),
			R: prefix.Append(t.R.Digit(0) + 1),
		})
	}
	out := &interval.Relation{Tuples: make([]interval.Tuple, 0, len(rel.Tuples)+len(fresh))}
	out.Tuples = append(out.Tuples, rel.Tuples[:idx]...)
	out.Tuples = append(out.Tuples, fresh...)
	out.Tuples = append(out.Tuples, rel.Tuples[idx:]...)
	return out, interval.Edit{At: idx, Inserted: len(fresh)}
}

// prefixBetween returns a key P such that P < P.Append(k) < hi for every
// k >= 1, and P.Append(k) > lo — i.e. an unbounded supply of fresh keys in
// the open interval (lo, hi).
func prefixBetween(lo, hi interval.Key) interval.Key {
	if lo == nil {
		if hi == nil {
			return interval.Key{-1}
		}
		// Below everything: step under hi's leading digit (possibly going
		// negative — keys order fine; see the package comment on storage).
		return interval.Key{hi.Digit(0) - 1}
	}
	p := lo.Norm()
	if hi == nil || !hi.HasPrefix(p) {
		// hi diverges above lo before p ends (or does not exist): any
		// extension of p stays below hi.
		return p
	}
	// hi = p ++ rest with rest > 0: descend through rest's leading zeros,
	// then step just below its first nonzero digit.
	for i := len(p); ; i++ {
		d := hi.Digit(i)
		if d != 0 {
			return p.Append(d - 1)
		}
		p = p.Append(0)
	}
}

package engine

import "dixq/internal/interval"

// CompareForests decides the structural (tree) order of two encoded forests
// — the DeepCompare physical operator of Algorithm 5.3. Both inputs must be
// sorted by L. The result is -1, 0 or +1 under the same total order as
// xmltree.Forest.Compare.
//
// The algorithm views each encoding as its stream of open/close events (a
// tuple opens at its L endpoint and closes at its R endpoint; the merged
// endpoint order is recovered with a stack, in one linear pass) and
// compares the two streams lexicographically with "close" sorting before
// any "open": a forest that closes a node where the other opens one is the
// structurally smaller — the paper's "missing sibling" rule. Labels break
// ties between two opens.
//
// Time is linear in the smaller forest; space is bounded by forest depth.
func CompareForests(a, b []interval.Tuple) int {
	// Stack-backed iterator stacks: forests deeper than 16 spill to the
	// heap, everything else makes DeepCompare allocation-free — it is the
	// inner loop of every structural sort. The iterators are values (next
	// returns the advanced one), so the arrays never escape through a
	// pointer receiver.
	var sa, sb [16]interval.Key
	ia := eventIter{tuples: a, stack: sa[:0]}
	ib := eventIter{tuples: b, stack: sb[:0]}
	for {
		var openA, openB, okA, okB bool
		var labelA, labelB string
		ia, openA, labelA, okA = ia.next()
		ib, openB, labelB, okB = ib.next()
		switch {
		case !okA && !okB:
			return 0
		case !okA:
			return -1
		case !okB:
			return 1
		case !openA && !openB:
			// matching closes; continue
		case !openA:
			return -1 // A closes where B opens: A is a strict prefix here
		case !openB:
			return 1
		default:
			if labelA != labelB {
				if labelA < labelB {
					return -1
				}
				return 1
			}
		}
	}
}

// EqualForests reports structural equality of two encoded forests.
func EqualForests(a, b []interval.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	return CompareForests(a, b) == 0
}

// eventIter yields the open/close event stream of an encoded forest sorted
// by L. The stack holds the R endpoints of currently open nodes.
type eventIter struct {
	tuples []interval.Tuple
	i      int
	stack  []interval.Key
}

// next returns the iterator advanced past the next event: open reports
// the kind, label is set for opens, and ok is false when the stream is
// exhausted.
func (it eventIter) next() (_ eventIter, open bool, label string, ok bool) {
	if n := len(it.stack); n > 0 {
		if it.i >= len(it.tuples) || interval.Compare(it.stack[n-1], it.tuples[it.i].L) < 0 {
			it.stack = it.stack[:n-1]
			return it, false, "", true
		}
	}
	if it.i < len(it.tuples) {
		t := it.tuples[it.i]
		it.i++
		it.stack = append(it.stack, t.R)
		return it, true, t.S, true
	}
	return it, false, "", false
}

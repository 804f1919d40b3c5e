package interval

// Runs records the rows an operator keeps from one source slice as
// maximal [lo, hi) runs of positions, in ascending order. Every
// filter-shaped operator — one that keeps a subsequence of its input's
// tuples unchanged — records its survivors here and materializes them
// once with Of, which serves a single run as a view of the source instead
// of a copy. Relations are immutable, so a view shares rows safely.
type Runs [][2]int32

// Add records the rows [lo, hi), which must start at or after the end of
// the last run; a run adjacent to the last one extends it. An empty range
// is ignored.
func (rs *Runs) Add(lo, hi int) {
	if lo >= hi {
		return
	}
	if n := len(*rs); n > 0 && (*rs)[n-1][1] == int32(lo) {
		(*rs)[n-1][1] = int32(hi)
		return
	}
	*rs = append(*rs, [2]int32{int32(lo), int32(hi)})
}

// Of returns the recorded rows of src: nil when there are none; for a
// single run, src[lo:hi:hi] — no copy, and capacity-capped, so an append
// to the result can never write into the shared rows; otherwise one
// exactly sized copy.
func (rs Runs) Of(src []Tuple) []Tuple {
	switch len(rs) {
	case 0:
		return nil
	case 1:
		return src[rs[0][0]:rs[0][1]:rs[0][1]]
	}
	n := 0
	for _, r := range rs {
		n += int(r[1] - r[0])
	}
	out := make([]Tuple, 0, n)
	for _, r := range rs {
		out = append(out, src[r[0]:r[1]]...)
	}
	return out
}

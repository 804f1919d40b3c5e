// One budgeted sort. Every group reorder of the engine — the structural
// sort, distinct, order by and both sides of the merge join — builds its
// sort units, asks SortUnits for their stable permutation and emits by it.
// The units stay resident throughout, and every order is computed by
// interval.SortPerm through the caller's position comparator. Under a
// runtime memory budget a sort whose units outgrow the budget is cut into
// batches; each batch is sorted and spilled as a run file of its sorted
// unit positions, and a k-way merge reads the runs back, comparing the
// resident units the positions name. Ties break by position on both
// paths, so the permutation, and every relation emitted from it, is
// identical at any budget.
package engine

import (
	"bufio"
	"container/heap"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"dixq/internal/interval"
	"dixq/internal/obs"
)

// SpillConfig bounds the memory of the budgeted sorts.
type SpillConfig struct {
	// MaxBytes is the accounted in-memory ceiling per sort; sorts whose
	// units' footprint stays under it run in memory. <= 0 means unbounded.
	MaxBytes int64
	// Dir is the spill directory; empty means the OS temp directory.
	Dir string
	// Run, when non-nil, is the budget of the run the sorts belong to: a
	// spilling sort stops between positions once its context is done.
	Run *Budget
}

// SpillStats reports what the budgeted sorts wrote to disk.
type SpillStats struct {
	// Runs is the number of run files written.
	Runs int64
	// Bytes is the accounted footprint of the units the runs order.
	Bytes int64
}

// SortUnits returns the stable permutation of [0, len(units)) ordering the
// sort units — keys[i] (keys may be nil) with the tuple group units[i] —
// by cmp over positions, ties broken by position. When a budget is set
// (spill non-nil with MaxBytes > 0) and the units' accounted footprint
// exceeds it, the positions are sorted in batches that spill to run files
// in spill.Dir and merge back, and the disk activity accumulates into
// stats; otherwise the permutation is computed in one pass. A spilling
// sort fails with the context's error of spill.Run once it is done. A
// budgeted sort counts its footprint into dixq_sort_bytes_total on either
// path.
func SortUnits(keys []interval.Key, units [][]interval.Tuple, cmp func(a, b int) int,
	spill *SpillConfig, stats *SpillStats) ([]int, error) {

	if spill == nil || spill.MaxBytes <= 0 {
		return interval.SortPerm(len(units), cmp), nil
	}
	foot := func(i int) int64 {
		n := interval.TuplesFootprint(units[i])
		if keys != nil {
			n += int64(len(keys[i])) * 8
		}
		return n
	}
	total := int64(0)
	for i := range units {
		total += foot(i)
	}
	if total <= spill.MaxBytes {
		obs.SortedBytes.Add(total)
		return interval.SortPerm(len(units), cmp), nil
	}
	// A batch's units are accounted with their 8-byte position; it flushes
	// as one run once the running sum passes the budget.
	s := &spiller{dir: spill.Dir, cmp: cmp}
	defer s.close()
	lo, bytes := 0, int64(0)
	for i := range units {
		if err := spill.Run.Err(); err != nil {
			return nil, err
		}
		bytes += 8 + foot(i)
		if bytes > spill.MaxBytes {
			if err := s.flush(lo, i+1, bytes); err != nil {
				return nil, err
			}
			lo, bytes = i+1, 0
		}
	}
	stats.Runs += int64(len(s.runs))
	stats.Bytes += s.spilled
	obs.SortedBytes.Add(s.spilled + bytes)
	return s.merge(len(units), s.sortBatch(lo, len(units)), spill.Run)
}

// spiller is one spilling sort: the run files written so far and the
// accounted footprint of the units they order.
type spiller struct {
	dir     string
	cmp     func(a, b int) int
	runs    []string
	spilled int64
}

// sortBatch returns the positions [lo, hi) in sorted order.
func (s *spiller) sortBatch(lo, hi int) []int {
	order := interval.SortPerm(hi-lo, func(a, b int) int { return s.cmp(lo+a, lo+b) })
	for i := range order {
		order[i] += lo
	}
	return order
}

// flush sorts the batch [lo, hi) and writes it out as one run file. A run
// file is registered before it is written, so close removes it whatever
// fails.
func (s *spiller) flush(lo, hi int, bytes int64) error {
	f, err := os.CreateTemp(s.dir, "dixq-spill-*.run")
	if err != nil {
		return fmt.Errorf("engine: create run: %w", err)
	}
	s.runs = append(s.runs, f.Name())
	err = writeRun(f, s.sortBatch(lo, hi))
	if cerr := f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("engine: write run: %w", cerr)
	}
	if err != nil {
		return err
	}
	s.spilled += bytes
	obs.SpilledRuns.Inc()
	obs.SpilledBytes.Add(bytes)
	return nil
}

// close removes every run file.
func (s *spiller) close() {
	for _, path := range s.runs {
		os.Remove(path)
	}
}

// writeRun writes sorted positions to w as uvarints in one write, counted
// into dixq_spill_run_bytes_written_total.
func writeRun(w io.Writer, positions []int) error {
	buf := make([]byte, 0, 2*len(positions))
	for _, p := range positions {
		buf = binary.AppendUvarint(buf, uint64(p))
	}
	n, err := w.Write(buf)
	obs.RunBytesWritten.Add(int64(n))
	if err == nil && n < len(buf) {
		err = io.ErrShortWrite
	}
	if err != nil {
		return fmt.Errorf("engine: write run: %w", err)
	}
	return nil
}

// countingReader charges dixq_spill_run_bytes_read_total per buffer fill.
type countingReader struct{ r io.Reader }

func (cr countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	obs.RunBytesRead.Add(int64(n))
	return n, err
}

// runStream is one merge input with one position of lookahead: a run
// file read through br, or the sorted in-memory tail when br is nil.
type runStream struct {
	cur  int
	br   *bufio.Reader
	tail []int
}

// advance loads the stream's next position; ok is false on exhaustion. A
// truncated varint or a position outside [0, n) is an error.
func (st *runStream) advance(n int) (ok bool, err error) {
	if st.br == nil {
		if len(st.tail) == 0 {
			return false, nil
		}
		st.cur, st.tail = st.tail[0], st.tail[1:]
		return true, nil
	}
	v, err := binary.ReadUvarint(st.br)
	switch {
	case err == io.EOF:
		return false, nil
	case err != nil:
		return false, fmt.Errorf("engine: read run: %w", err)
	case v >= uint64(n):
		return false, fmt.Errorf("engine: read run: position %d outside [0, %d)", v, n)
	}
	st.cur = int(v)
	return true, nil
}

// mergeHeap orders streams by their lookahead position: the comparator,
// then the position.
type mergeHeap struct {
	s   []*runStream
	cmp func(a, b int) int
}

func (h *mergeHeap) Len() int { return len(h.s) }
func (h *mergeHeap) Less(i, j int) bool {
	a, b := h.s[i].cur, h.s[j].cur
	if c := h.cmp(a, b); c != 0 {
		return c < 0
	}
	return a < b
}
func (h *mergeHeap) Swap(i, j int) { h.s[i], h.s[j] = h.s[j], h.s[i] }
func (h *mergeHeap) Push(x any)    { h.s = append(h.s, x.(*runStream)) }
func (h *mergeHeap) Pop() any      { x := h.s[len(h.s)-1]; h.s = h.s[:len(h.s)-1]; return x }

// merge k-way merges the run files with the sorted in-memory tail into the
// permutation of [0, n), polling run after every position. The runs must
// hold every position of [0, n) exactly once.
func (s *spiller) merge(n int, tail []int, run *Budget) ([]int, error) {
	h := &mergeHeap{cmp: s.cmp}
	streams := []*runStream{{tail: tail}}
	for _, path := range s.runs {
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("engine: open run: %w", err)
		}
		defer f.Close()
		streams = append(streams, &runStream{br: bufio.NewReader(countingReader{f})})
	}
	for _, st := range streams {
		ok, err := st.advance(n)
		if err != nil {
			return nil, err
		}
		if ok {
			heap.Push(h, st)
		}
	}
	order := make([]int, 0, n)
	seen := make([]bool, n)
	for h.Len() > 0 {
		st := h.s[0]
		if seen[st.cur] {
			return nil, fmt.Errorf("engine: read run: position %d repeated", st.cur)
		}
		seen[st.cur] = true
		order = append(order, st.cur)
		if err := run.Err(); err != nil {
			return nil, err
		}
		ok, err := st.advance(n)
		if err != nil {
			return nil, err
		}
		if ok {
			heap.Fix(h, 0)
		} else {
			heap.Pop(h)
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("engine: read run: runs hold %d positions, want %d", len(order), n)
	}
	return order, nil
}

// Package extsort is the bounded-memory sort behind the runtime's
// MemBudget: records accumulate in memory until their accounted footprint
// crosses the budget, then the batch is sorted and written out as one run
// in the streaming DIXQR1 encoding (internal/store); Merge replays all
// on-disk runs plus the in-memory tail through a k-way heap merge. The
// comparator is caller-supplied and records carry a unique ordinal as the
// final tie-break, so the merged order is exactly the order a stable
// in-memory sort of the whole input would produce — which is what lets the
// engine's one budgeted sort (engine.SortUnits) swap this in for an
// over-budget sort without changing a digit of output.
package extsort

import (
	"container/heap"
	"fmt"
	"io"
	"os"

	"dixq/internal/exec"
	"dixq/internal/interval"
	"dixq/internal/obs"
	"dixq/internal/store"
)

// Record is one sortable unit: an optional sort key, the payload tuple
// group, and a unique non-negative ordinal that both breaks comparator
// ties (stability) and preserves identity across the disk round-trip.
type Record struct {
	Ord    int64
	Key    interval.Key
	Tuples []interval.Tuple
}

// Footprint returns the accounted in-memory size of a record, in bytes —
// the quantity charged against Config.MaxBytes.
func Footprint(r *Record) int64 {
	n := int64(8) + int64(len(r.Key))*8
	for i := range r.Tuples {
		n += interval.TupleFootprint(r.Tuples[i])
	}
	return n
}

// Config bounds a sorter.
type Config struct {
	// MaxBytes is the in-memory ceiling; when the buffered records'
	// footprint exceeds it, they are flushed to a run. <= 0 means
	// unbounded (the sorter never spills).
	MaxBytes int64
	// Dir is the spill directory; empty means the OS temp directory.
	Dir string
	// Parallelism bounds the workers of each run's in-memory sort and,
	// when >= 2, lets a flushed run sort and write to disk in the
	// background while the caller keeps buffering the next batch. Run
	// contents are a pure function of the Add sequence and the budget —
	// SortPerm is identical at any parallelism and the batch is frozen at
	// flush time — and the merge's total order makes run boundaries
	// invisible, so output is digit-identical at any setting. <= 1 keeps
	// every flush synchronous.
	Parallelism int
}

// Sorter accumulates records and produces them in sorted order, spilling
// to disk runs when over budget. Not safe for concurrent use (the
// background flush is internal: every exported method settles it first).
type Sorter struct {
	cmp    func(a, b *Record) int
	cfg    Config
	recs   []Record
	bytes  int64
	runs   []string
	spills int64
	// bg carries the result of the at-most-one in-flight background
	// flush; nil when none is pending. err latches the first flush
	// failure so accessors without an error return stay correct.
	bg  chan flushResult
	err error
}

// flushResult is what a background flush hands back: the finished run
// file and the accounted footprint it drained from the buffer.
type flushResult struct {
	path  string
	bytes int64
	err   error
}

// New returns a sorter ordering records by cmp, ties broken by Ord.
func New(cfg Config, cmp func(a, b *Record) int) *Sorter {
	return &Sorter{cmp: cmp, cfg: cfg}
}

// compare is the total order: caller comparator, then ordinal.
func (s *Sorter) compare(a, b *Record) int {
	if c := s.cmp(a, b); c != 0 {
		return c
	}
	switch {
	case a.Ord < b.Ord:
		return -1
	case a.Ord > b.Ord:
		return 1
	}
	return 0
}

// Add buffers one record, flushing a run if the buffer exceeds the budget.
func (s *Sorter) Add(r Record) error {
	if r.Ord < 0 {
		return fmt.Errorf("extsort: negative record ordinal %d", r.Ord)
	}
	s.recs = append(s.recs, r)
	s.bytes += Footprint(&r)
	if s.cfg.MaxBytes > 0 && s.bytes > s.cfg.MaxBytes {
		return s.flush()
	}
	return nil
}

// Runs returns the number of runs spilled to disk so far (any in-flight
// background flush counted, since it settles first).
func (s *Sorter) Runs() int { s.settle(); return len(s.runs) }

// SpilledBytes returns the accounted footprint of everything flushed.
func (s *Sorter) SpilledBytes() int64 { s.settle(); return s.spills }

// sortRecords orders a record batch by the total order.
func sortRecords(recs []Record, parallelism int, cmp func(a, b *Record) int) []Record {
	order := interval.SortPerm(len(recs), parallelism, func(i, j int) int {
		return cmp(&recs[i], &recs[j])
	})
	sorted := make([]Record, len(recs))
	for i, p := range order {
		sorted[i] = recs[p]
	}
	return sorted
}

// flush hands the buffered records off as one run. With a budget-clamped
// Parallelism of at least 2 (exec.Effective — a zero worker budget keeps
// even the flush synchronous) the batch sorts and writes in the background — at most one flush in
// flight, so a second over-budget batch waits for the first — and the
// caller's buffer starts fresh immediately; otherwise the flush completes
// before returning.
func (s *Sorter) flush() error {
	if err := s.settle(); err != nil {
		return err
	}
	if len(s.recs) == 0 {
		return nil
	}
	batch, bytes := s.recs, s.bytes
	s.recs = nil
	s.bytes = 0
	if exec.Effective(s.cfg.Parallelism) >= 2 {
		s.bg = make(chan flushResult, 1)
		go func() {
			path, err := writeRun(batch, s.cfg, s.totalOrder())
			s.bg <- flushResult{path: path, bytes: bytes, err: err}
		}()
		return nil
	}
	path, err := writeRun(batch, s.cfg, s.totalOrder())
	return s.finishRun(flushResult{path: path, bytes: bytes, err: err})
}

// settle waits for any in-flight background flush and folds its result
// into the sorter. The first flush error latches into s.err.
func (s *Sorter) settle() error {
	if s.bg != nil {
		res := <-s.bg
		s.bg = nil
		if err := s.finishRun(res); err != nil && s.err == nil {
			s.err = err
		}
	}
	return s.err
}

// finishRun books one completed run into the sorter's accounting.
func (s *Sorter) finishRun(res flushResult) error {
	if res.err != nil {
		return res.err
	}
	s.runs = append(s.runs, res.path)
	s.spills += res.bytes
	obs.SpilledRuns.Inc()
	obs.SpilledBytes.Add(res.bytes)
	return nil
}

// totalOrder returns the comparator-then-ordinal total order as a free
// function, safe to call from the background flush goroutine (s.cmp and
// s.compare read no mutable sorter state).
func (s *Sorter) totalOrder() func(a, b *Record) int { return s.compare }

// writeRun sorts one frozen batch and writes it out as a run file,
// returning the file name.
func writeRun(recs []Record, cfg Config, cmp func(a, b *Record) int) (string, error) {
	recs = sortRecords(recs, max(1, cfg.Parallelism), cmp)
	f, err := os.CreateTemp(cfg.Dir, "dixq-spill-*.run")
	if err != nil {
		return "", fmt.Errorf("extsort: create run: %w", err)
	}
	w, err := store.NewRunWriter(f)
	if err == nil {
		for i := range recs {
			if err = writeRecord(w, &recs[i]); err != nil {
				break
			}
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(f.Name())
		return "", fmt.Errorf("extsort: write run %s: %w", f.Name(), err)
	}
	return f.Name(), nil
}

// writeRecord frames one record on a run stream: ordinal, key, tuple
// count, tuples.
func writeRecord(w *store.RunWriter, r *Record) error {
	if err := w.Uvarint(uint64(r.Ord)); err != nil {
		return err
	}
	if err := w.Key(r.Key); err != nil {
		return err
	}
	if err := w.Uvarint(uint64(len(r.Tuples))); err != nil {
		return err
	}
	for _, t := range r.Tuples {
		if err := w.Tuple(t); err != nil {
			return err
		}
	}
	return nil
}

// readRecord reads one record; io.EOF at the frame boundary means the run
// is exhausted.
func readRecord(rr *store.RunReader) (Record, error) {
	ord, err := rr.Uvarint()
	if err != nil {
		return Record{}, err
	}
	key, err := rr.Key()
	if err != nil {
		return Record{}, unexpectedEOF(err)
	}
	n, err := rr.Uvarint()
	if err != nil {
		return Record{}, unexpectedEOF(err)
	}
	r := Record{Ord: int64(ord), Key: key}
	for i := uint64(0); i < n; i++ {
		t, err := rr.Tuple()
		if err != nil {
			return Record{}, unexpectedEOF(err)
		}
		r.Tuples = append(r.Tuples, t)
	}
	return r, nil
}

func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// stream is one merge input with a single record of lookahead: either a
// disk run or the in-memory tail.
type stream struct {
	cur  Record
	rr   *store.RunReader
	f    *os.File
	recs []Record // in-memory tail; nil for disk runs
	pos  int
}

// advance loads the stream's next record; ok=false on exhaustion.
func (st *stream) advance() (bool, error) {
	if st.rr == nil {
		if st.pos >= len(st.recs) {
			return false, nil
		}
		st.cur = st.recs[st.pos]
		st.pos++
		return true, nil
	}
	r, err := readRecord(st.rr)
	if err == io.EOF {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	st.cur = r
	return true, nil
}

// mergeHeap orders streams by their lookahead record.
type mergeHeap struct {
	s   []*stream
	cmp func(a, b *Record) int
}

func (h *mergeHeap) Len() int           { return len(h.s) }
func (h *mergeHeap) Less(i, j int) bool { return h.cmp(&h.s[i].cur, &h.s[j].cur) < 0 }
func (h *mergeHeap) Swap(i, j int)      { h.s[i], h.s[j] = h.s[j], h.s[i] }
func (h *mergeHeap) Push(x any)         { h.s = append(h.s, x.(*stream)) }
func (h *mergeHeap) Pop() any           { x := h.s[len(h.s)-1]; h.s = h.s[:len(h.s)-1]; return x }

// Merge yields every added record in sorted order and releases the run
// files. The sorter must not be reused afterwards. Records yielded from
// disk runs have re-decoded keys and tuples (digit-identical to what was
// added); the record passed to yield is only valid during the callback.
// Returning an error from yield stops the merge.
func (s *Sorter) Merge(yield func(*Record) error) error {
	defer s.Close()
	if err := s.settle(); err != nil {
		return err
	}
	// Everything added passes through this sort exactly once: the flushed
	// runs plus the in-memory tail.
	obs.SortedBytes.Add(s.spills + s.bytes)
	s.recs = sortRecords(s.recs, max(1, s.cfg.Parallelism), s.compare)
	if len(s.runs) == 0 {
		for i := range s.recs {
			if err := yield(&s.recs[i]); err != nil {
				return err
			}
		}
		return nil
	}
	h := &mergeHeap{cmp: s.compare}
	open := func(path string) (*stream, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		rr, err := store.NewRunReader(f)
		if err != nil {
			f.Close()
			return nil, err
		}
		return &stream{rr: rr, f: f}, nil
	}
	var streams []*stream
	defer func() {
		for _, st := range streams {
			if st.f != nil {
				st.f.Close()
			}
		}
	}()
	for _, path := range s.runs {
		st, err := open(path)
		if err != nil {
			return fmt.Errorf("extsort: open run: %w", err)
		}
		streams = append(streams, st)
	}
	streams = append(streams, &stream{recs: s.recs})
	for _, st := range streams {
		ok, err := st.advance()
		if err != nil {
			return fmt.Errorf("extsort: read run: %w", err)
		}
		if ok {
			heap.Push(h, st)
		}
	}
	for h.Len() > 0 {
		st := h.s[0]
		if err := yield(&st.cur); err != nil {
			return err
		}
		ok, err := st.advance()
		if err != nil {
			return fmt.Errorf("extsort: read run: %w", err)
		}
		if ok {
			heap.Fix(h, 0)
		} else {
			heap.Pop(h)
		}
	}
	return nil
}

// Close removes any spilled run files; safe to call more than once. Merge
// calls it automatically. Any in-flight background flush settles first so
// its run file is removed too.
func (s *Sorter) Close() {
	s.settle()
	for _, path := range s.runs {
		os.Remove(path)
	}
	s.runs = nil
}

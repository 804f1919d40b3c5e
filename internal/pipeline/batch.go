// Batch-at-a-time execution. The Batch interface runs the Section 5
// operators at chunk granularity: each Next yields a columnar
// interval.Flat of up to BatchSize rows, and the kernels run their state
// machines as tight loops over the shared digit buffer, carrying the
// enclosing-interval state across chunk boundaries.
package pipeline

import (
	"dixq/internal/interval"
	"dixq/internal/xmltree"
)

// DefaultBatchSize is the chunk row count used when the caller does not
// configure one. 256 rows keeps a chunk's digit buffer (2·stride·256
// int64s) inside L1/L2 for the strides the width inference produces;
// sweeps over the XMark workload put the optimum at 128–256 rows, with
// larger chunks paying in buffer zeroing and cache misses.
const DefaultBatchSize = 256

// Batch yields columnar chunks of an interval relation in L-key order.
// A returned chunk is valid only until the next call to Next — producers
// reuse their buffers — so consumers must copy any state they retain
// across calls. Consumers OWN a yielded chunk until then and may mutate it
// in place: the filter kernels compact survivors downward rather than
// gathering into buffers of their own. Implementations never yield an
// empty chunk.
type Batch interface {
	Next() (*interval.Flat, bool)
}

// RelationBatches chunks a row-form relation into a reused columnar
// buffer, preserving exact key lengths.
type RelationBatches struct {
	rel   *interval.Relation
	pos   int
	end   int
	size  int
	chunk *interval.Flat
}

// NewRelationBatches returns a batch source over rel with chunks of up to
// batchSize rows (DefaultBatchSize when batchSize <= 0).
func NewRelationBatches(rel *interval.Relation, batchSize int) *RelationBatches {
	return NewRelationBatchesWith(rel, batchSize, nil)
}

// NewRelationBatchesWith is NewRelationBatches filling a caller-owned
// chunk buffer, re-strided for this relation — the executor hands the same
// buffer to every fused chain of an evaluation, so only the first chain
// pays the chunk allocation. A nil chunk allocates a fresh one.
func NewRelationBatchesWith(rel *interval.Relation, batchSize int, chunk *interval.Flat) *RelationBatches {
	s := &RelationBatches{}
	s.Init(rel, batchSize, chunk)
	return s
}

// Init readies s to chunk rel, reusing s and the given chunk buffer — the
// executor keeps one RelationBatches value per evaluation and re-inits it
// for each fused chain, so a chain's source costs no allocation at all.
func (s *RelationBatches) Init(rel *interval.Relation, batchSize int, chunk *interval.Flat) {
	s.InitRange(rel, 0, len(rel.Tuples), batchSize, chunk)
}

// InitRange is Init restricted to the half-open row range [lo, hi) of rel
// — the morsel form used by the parallel chain runner, whose workers each
// drain their own row range through a worker-owned chunk buffer. The
// chunk stride still covers the whole relation (its memoized MaxKeyLen)
// so a buffer can be reused across morsels of the same chain.
func (s *RelationBatches) InitRange(rel *interval.Relation, lo, hi, batchSize int, chunk *interval.Flat) {
	if batchSize <= 0 {
		batchSize = DefaultBatchSize
	}
	stride := max(1, rel.MaxKeyLen())
	n := batchSize
	if hi-lo < n {
		n = hi - lo
	}
	if chunk == nil {
		chunk = interval.NewFlat(stride, n)
	} else {
		chunk.Restride(stride)
		chunk.Reserve(n)
	}
	*s = RelationBatches{rel: rel, pos: lo, end: hi, size: batchSize, chunk: chunk}
}

// Stride returns the fixed chunk stride (the relation's maximum physical
// key length).
func (s *RelationBatches) Stride() int { return s.chunk.Stride }

// Next implements Batch. Each chunk row records its source index in the
// Orig column, so the chain's materialization can hand back the original
// tuples without copying digits.
func (s *RelationBatches) Next() (*interval.Flat, bool) {
	if s.pos >= s.end {
		return nil, false
	}
	end := s.pos + s.size
	if end > s.end {
		end = s.end
	}
	s.chunk.Reset()
	if s.chunk.Orig == nil {
		s.chunk.Orig = make([]int32, 0, s.size)
	}
	for ; s.pos < end; s.pos++ {
		s.chunk.AppendTuple(s.rel.Tuples[s.pos])
		s.chunk.Orig = append(s.chunk.Orig, int32(s.pos))
	}
	return s.chunk, true
}

// RangeBatches chunks the row ranges of an index resolution into a reused
// columnar buffer — the batch source that reads index seek results straight
// into pipeline chunks, touching no row outside the ranges and never
// materializing an intermediate relation. As with RelationBatches, each
// chunk row records its absolute relation index in Orig, so the chain's
// materialization hands back the original tuples without copying digits.
type RangeBatches struct {
	rel    *interval.Relation
	ranges [][2]int32
	ri     int
	pos    int
	size   int
	chunk  *interval.Flat
}

// Init readies s to chunk the sorted disjoint [start, end) row ranges of
// rel, reusing s and the given chunk buffer like (*RelationBatches).Init.
// The chunk stride covers the whole relation so the buffer interchanges
// with the other sources of the same evaluation.
func (s *RangeBatches) Init(rel *interval.Relation, ranges [][2]int32, batchSize int, chunk *interval.Flat) {
	if batchSize <= 0 {
		batchSize = DefaultBatchSize
	}
	stride := max(1, rel.MaxKeyLen())
	total := 0
	for _, r := range ranges {
		total += int(r[1] - r[0])
	}
	n := batchSize
	if total < n {
		n = total
	}
	if chunk == nil {
		chunk = interval.NewFlat(stride, n)
	} else {
		chunk.Restride(stride)
		chunk.Reserve(n)
	}
	*s = RangeBatches{rel: rel, ranges: ranges, size: batchSize, chunk: chunk}
	if len(ranges) > 0 {
		s.pos = int(ranges[0][0])
	}
}

// Next implements Batch, packing rows from consecutive ranges into full
// chunks.
func (s *RangeBatches) Next() (*interval.Flat, bool) {
	s.chunk.Reset()
	if s.chunk.Orig == nil {
		s.chunk.Orig = make([]int32, 0, s.size)
	}
	n := 0
	for s.ri < len(s.ranges) && n < s.size {
		end := int(s.ranges[s.ri][1])
		for ; s.pos < end && n < s.size; s.pos++ {
			s.chunk.AppendTuple(s.rel.Tuples[s.pos])
			s.chunk.Orig = append(s.chunk.Orig, int32(s.pos))
			n++
		}
		if s.pos >= end {
			s.ri++
			if s.ri < len(s.ranges) {
				s.pos = int(s.ranges[s.ri][0])
			}
		}
	}
	if n == 0 {
		return nil, false
	}
	return s.chunk, true
}

// FlatBatches chunks an existing columnar relation into zero-copy windows.
type FlatBatches struct {
	f    *interval.Flat
	pos  int
	size int
}

// NewFlatBatches returns a batch source over f's rows in windows of up to
// batchSize rows (DefaultBatchSize when batchSize <= 0). The windows alias
// f's buffers; no digits are copied. Filter kernels downstream compact the
// windows in place, so chaining consumes f.
func NewFlatBatches(f *interval.Flat, batchSize int) *FlatBatches {
	if batchSize <= 0 {
		batchSize = DefaultBatchSize
	}
	return &FlatBatches{f: f, size: batchSize}
}

// Next implements Batch.
func (s *FlatBatches) Next() (*interval.Flat, bool) {
	if s.pos >= s.f.Len() {
		return nil, false
	}
	end := s.pos + s.size
	if end > s.f.Len() {
		end = s.f.Len()
	}
	v := s.f.View(s.pos, end)
	s.pos = end
	return v, true
}

// Stage is one fused filter operator in value form: its kind, parameters,
// and the per-row state machine. Stages live by value inside a Chain so
// that an entire fused chain costs a constant number of allocations, not
// one per operator. The retained keys (max,
// prefix, end) are copied into stage-owned buffers because source chunks
// are reused between calls.
type Stage struct {
	kind  stageKind
	label string
	depth int

	max     interval.Key // roots/children/select: R of the current tree
	prefix  interval.Key // head/tail: digits identifying the environment
	end     interval.Key // head/tail: R of the environment's first tree
	have    bool
	keeping bool
	done    bool
}

type stageKind uint8

const (
	stageRoots stageKind = iota
	stageChildren
	stageSelectLabel
	stageSelectText
	stageData
	stageHead
	stageTail
)

// RootsStage is Algorithm 5.2 at chunk granularity: keep a row iff its
// interval starts after every previously seen interval has closed.
func RootsStage() Stage { return Stage{kind: stageRoots} }

// ChildrenStage keeps the complement of roots: rows strictly inside a
// previously opened interval.
func ChildrenStage() Stage { return Stage{kind: stageChildren} }

// SelectLabelStage keeps whole top-level trees whose root label equals
// label.
func SelectLabelStage(label string) Stage { return Stage{kind: stageSelectLabel, label: label} }

// SelectTextStage keeps whole top-level trees whose root is a text node.
func SelectTextStage() Stage { return Stage{kind: stageSelectText} }

// DataStage keeps text-labeled rows (always leaves); the only stateless
// stage.
func DataStage() Stage { return Stage{kind: stageData} }

// HeadStage keeps each environment's first top-level tree: depth digits
// of L identify the environment, the first tuple of each environment opens
// its first tree, and done latches once a row falls outside it.
func HeadStage(depth int) Stage { return Stage{kind: stageHead, depth: depth} }

// TailStage keeps everything but each environment's first top-level tree.
func TailStage(depth int) Stage { return Stage{kind: stageTail, depth: depth} }

// Reuse re-initializes s as proto while keeping s's retained key buffers,
// so a recycled stage list pays no per-chain state allocation once its
// buffers have grown.
func (s *Stage) Reuse(proto Stage) {
	proto.max, proto.prefix, proto.end = s.max[:0], s.prefix[:0], s.end[:0]
	*s = proto
}

// keep advances the state machine by one row and reports whether the row
// survives.
func (s *Stage) keep(f *interval.Flat, i int) bool {
	switch s.kind {
	case stageRoots, stageChildren:
		if !s.have || interval.Compare(f.L(i), s.max) > 0 {
			s.max = append(s.max[:0], f.R(i)...)
			s.have = true
			return s.kind == stageRoots
		}
		return s.kind == stageChildren
	case stageSelectLabel, stageSelectText:
		if !s.have || interval.Compare(f.L(i), s.max) > 0 {
			s.max = append(s.max[:0], f.R(i)...)
			s.have = true
			if s.kind == stageSelectLabel {
				s.keeping = f.Labels[i] == s.label
			} else {
				s.keeping = xmltree.LabelKind(f.Labels[i]) == xmltree.Text
			}
		}
		return s.keeping
	case stageData:
		return xmltree.LabelKind(f.Labels[i]) == xmltree.Text
	default: // stageHead, stageTail
		head := s.kind == stageHead
		if !s.have || f.ComparePrefixAt(i, s.prefix, s.depth) != 0 {
			s.have = true
			s.prefix = s.prefix[:0]
			l := f.L(i)
			for d := 0; d < s.depth; d++ {
				s.prefix = append(s.prefix, l.Digit(d))
			}
			s.end = append(s.end[:0], f.R(i)...)
			s.done = false
			return head
		}
		inFirst := interval.Compare(f.L(i), s.end) <= 0 && !s.done
		if !inFirst {
			s.done = true
		}
		return inFirst == head
	}
}

// run compacts f's surviving rows to the front in place (the chain owns
// each chunk until the next Next, so no stage needs a buffer of its own)
// and returns the survivor count. A chunk whose rows all survive is
// untouched. The caller truncates.
func (s *Stage) run(f *interval.Flat) int {
	n := 0
	for i := 0; i < f.Len(); i++ {
		if s.keep(f, i) {
			f.MoveRow(n, i)
			n++
		}
	}
	return n
}

// StageStat is one stage's output actuals over a chain run: surviving
// rows, the non-empty chunks it passed on, and their accounted bytes.
type StageStat struct {
	Rows    int
	Batches int
	Bytes   int64
}

// Chain runs a whole fused stage sequence over each chunk in one pass —
// each state machine sees exactly the survivors of the previous one, in
// order — and skips chunks that filter to nothing, so consumers never see
// an empty batch. The entire chain costs one allocation regardless of
// length. It records every stage's StageStat as it goes (three additions
// per stage per chunk): Chain is the only runner, observed or not.
type Chain struct {
	in     Batch
	stages []Stage
	stats  []StageStat
}

// NewChain returns a Batch applying stages in order to in's chunks.
func NewChain(in Batch, stages []Stage) *Chain {
	c := &Chain{}
	c.Init(in, stages)
	return c
}

// Init readies c to run stages over in's chunks, reusing c and zeroing
// its per-stage stats — the chain twin of (*RelationBatches).Init.
func (c *Chain) Init(in Batch, stages []Stage) {
	c.in, c.stages = in, stages
	if cap(c.stats) < len(stages) {
		c.stats = make([]StageStat, len(stages))
	}
	c.stats = c.stats[:len(stages)]
	clear(c.stats)
}

// Stats returns the per-stage actuals accumulated since Init; Stats()[i]
// belongs to stages[i], and the last entry describes the chain's output.
// The slice is reused by the next Init.
func (c *Chain) Stats() []StageStat { return c.stats }

// Next implements Batch.
func (c *Chain) Next() (*interval.Flat, bool) {
outer:
	for {
		f, ok := c.in.Next()
		if !ok {
			return nil, false
		}
		for si := range c.stages {
			n := c.stages[si].run(f)
			if n == 0 {
				continue outer
			}
			f.Truncate(n)
			st := &c.stats[si]
			st.Rows += n
			st.Batches++
			st.Bytes += f.Footprint()
		}
		return f, true
	}
}

// MaterializeBatches drains a batch stream into a row-form relation. When
// the surviving rows carry Orig indices into rel (the RelationBatches
// path), the output tuples are the original tuples themselves — keys
// aliased, zero digit copies. Rows without an origin (e.g. a FlatBatches
// source) are cloned into an arena at their exact physical lengths.
func MaterializeBatches(b Batch, rel *interval.Relation) *interval.Relation {
	var arena interval.KeyArena
	var tuples []interval.Tuple
	for {
		f, ok := b.Next()
		if !ok {
			break
		}
		if f.Orig != nil && rel != nil {
			for _, o := range f.Orig {
				tuples = append(tuples, rel.Tuples[o])
			}
			continue
		}
		for i := 0; i < f.Len(); i++ {
			t := f.Tuple(i)
			tuples = append(tuples, interval.Tuple{S: t.S, L: arena.Clone(t.L), R: arena.Clone(t.R)})
		}
	}
	return &interval.Relation{Tuples: tuples}
}

// CountTreesBatches drains a batch stream and counts top-level trees — the
// streaming form of the count aggregate over a single environment.
func CountTreesBatches(b Batch) int {
	n := 0
	var max interval.Key
	have := false
	for {
		f, ok := b.Next()
		if !ok {
			return n
		}
		for i := 0; i < f.Len(); i++ {
			if !have || interval.Compare(f.L(i), max) > 0 {
				max = append(max[:0], f.R(i)...)
				have = true
				n++
			}
		}
	}
}

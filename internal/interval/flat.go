// Flat fixed-width key storage. Section 4.3 of the paper observes that a
// practical implementation should "allocate a sufficient number of
// integer-valued attributes at query compilation time" for interval
// endpoints. The types here realize that remark physically: instead of one
// heap allocation per Key, all L/R digits of a derived relation live in a
// shared []int64 at a fixed stride chosen from the width inference, with
// Keys (and Tuples) as zero-allocation views into the buffer.
//
// Three pieces:
//
//   - KeyArena bump-allocates variable-length keys out of shared chunks —
//     the building block for every derived key.
//   - Builder constructs whole derived relations: every Rebase/Emit call
//     writes the environment prefix and the local digits straight into the
//     shared buffer, so an operator producing n tuples performs O(log n)
//     allocations instead of 2n.
//   - Flat is the columnar view: labels in one slice, digits in another at
//     a fixed stride, with allocation-free positional comparators
//     (CompareAt, ComparePrefixAt) and a parallel structural sort.
package interval

// arenaChunkMin is the minimum capacity (in digits) of a fresh arena chunk.
const arenaChunkMin = 1024

// KeyArena bump-allocates keys out of shared []int64 chunks. Keys returned
// by an arena are ordinary Keys — immutable views into the chunk — so they
// flow through every existing comparator unchanged. The zero value is ready
// to use. An arena must not be used concurrently.
type KeyArena struct {
	chunk []int64 // active chunk; len = used digits, cap = chunk size
}

// alloc reserves a zeroed n-digit slot with its own capacity.
func (a *KeyArena) alloc(n int) Key {
	if n == 0 {
		return nil
	}
	if len(a.chunk)+n > cap(a.chunk) {
		c := 2 * cap(a.chunk)
		if c < arenaChunkMin {
			c = arenaChunkMin
		}
		if c < n {
			c = n
		}
		// Earlier keys keep pointing into the old chunk; nothing is copied.
		a.chunk = make([]int64, 0, c)
	}
	off := len(a.chunk)
	a.chunk = a.chunk[:off+n]
	// The returned key is capacity-capped so appending to it can never
	// clobber the next key in the chunk.
	return Key(a.chunk[off : off+n : off+n])
}

// Alloc reserves a zeroed n-digit key for the caller to fill in before
// handing it out (keys are immutable once shared).
func (a *KeyArena) Alloc(n int) Key { return a.alloc(n) }

// Reserve sizes the next chunk for at least n more digits.
func (a *KeyArena) Reserve(n int) {
	if cap(a.chunk)-len(a.chunk) < n {
		a.chunk = make([]int64, 0, n)
	}
}

// Clone copies a key into the arena.
func (a *KeyArena) Clone(k Key) Key {
	if len(k) == 0 {
		return nil
	}
	out := a.alloc(len(k))
	copy(out, k)
	return out
}

// Rebase builds the key base.Extend(baseLen).Append(k.Suffix(depth)...) in
// the arena: the first baseLen digits come from base (zero-padded), the
// rest are k's digits past depth.
func (a *KeyArena) Rebase(base Key, baseLen int, k Key, depth int) Key {
	n := len(k) - depth
	if n < 0 {
		n = 0
	}
	out := a.alloc(baseLen + n)
	for i := 0; i < baseLen; i++ {
		out[i] = base.Digit(i)
	}
	copy(out[baseLen:], k[len(k)-n:])
	return out
}

// Builder accumulates the tuples of a derived relation whose keys share
// one fixed-stride digit buffer. The stride is the upper bound on key
// length (environment depth plus local width, per the compile-time width
// inference); every key occupies one stride-sized slot, so row i's L and R
// digits sit at offsets 2·i·stride and (2·i+1)·stride. Keys keep their
// exact digit count (the slot's padding stays zero): a key's length is a
// function of its inputs' lengths, never of the stride.
type Builder struct {
	stride int
	arena  KeyArena
	tuples []Tuple
	base   []int64 // active environment prefix, reused across SetBase calls
}

// NewBuilder returns a builder for keys of at most stride digits, sized
// for rows tuples (rows may be 0 when the output size is unknown).
func NewBuilder(stride, rows int) *Builder {
	if stride < 1 {
		stride = 1
	}
	b := &Builder{stride: stride}
	if rows > 0 {
		b.tuples = make([]Tuple, 0, rows)
		b.arena.Reserve(2 * rows * stride)
	}
	return b
}

// Len returns the number of tuples added so far.
func (b *Builder) Len() int { return len(b.tuples) }

// slot reserves one stride-sized key slot and returns its first n digits.
func (b *Builder) slot(n int) Key {
	if n > b.stride {
		// Defensive: a key wider than the inferred stride gets its own
		// exact-size slot; row addressing is lost but nothing breaks.
		return b.arena.alloc(n)
	}
	return b.arena.alloc(b.stride)[:n:n]
}

// SetBase fixes the environment prefix for subsequent Rebase/Emit calls to
// the first depth digits of prefix, zero-padded.
func (b *Builder) SetBase(prefix Key, depth int) {
	if cap(b.base) < depth {
		b.base = make([]int64, 0, max(depth, 8))
	}
	b.base = b.base[:depth]
	for i := range b.base {
		b.base[i] = prefix.Digit(i)
	}
}

// PushBaseDigit appends one digit to the current base — the fresh position
// digit inserted by the renumbering operators (reverse, sort, subtrees).
func (b *Builder) PushBaseDigit(d int64) { b.base = append(b.base, d) }

// key writes base ++ suffix into a fresh slot.
func (b *Builder) key(suffix Key) Key {
	out := b.slot(len(b.base) + len(suffix))
	copy(out, b.base)
	copy(out[len(b.base):], suffix)
	return out
}

// Rebase appends the tuple (s, base++l.Suffix(depth), base++r.Suffix(depth)).
func (b *Builder) Rebase(s string, l, r Key, depth int) {
	b.tuples = append(b.tuples, Tuple{S: s, L: b.key(l.Suffix(depth)), R: b.key(r.Suffix(depth))})
}

// shifted writes base ++ (k.Digit(depth)+delta) ++ k[depth+1:] — the key
// with its first local digit bumped, implicit zeros materialized.
func (b *Builder) shifted(k Key, depth int, delta int64) Key {
	n := len(k) - depth - 1
	if n < 0 {
		n = 0
	}
	out := b.slot(len(b.base) + 1 + n)
	copy(out, b.base)
	out[len(b.base)] = k.Digit(depth) + delta
	copy(out[len(b.base)+1:], k[len(k)-n:])
	return out
}

// RebaseShift is Rebase with the first local digit of both keys bumped by
// delta (the shift used by element construction and concatenation).
func (b *Builder) RebaseShift(s string, l, r Key, depth int, delta int64) {
	b.tuples = append(b.tuples, Tuple{S: s, L: b.shifted(l, depth, delta), R: b.shifted(r, depth, delta)})
}

// Emit appends the tuple (s, base++[ld], base++[rd]) and returns its row,
// for later patching via SetRTail.
func (b *Builder) Emit(s string, ld, rd int64) int {
	row := len(b.tuples)
	l := b.slot(len(b.base) + 1)
	copy(l, b.base)
	l[len(b.base)] = ld
	r := b.slot(len(b.base) + 1)
	copy(r, b.base)
	r[len(b.base)] = rd
	b.tuples = append(b.tuples, Tuple{S: s, L: l, R: r})
	return row
}

// SetRTail overwrites the last digit of row's R key — used by Construct,
// whose root interval closes only after its children are emitted. Valid
// only before Relation hands the tuples out.
func (b *Builder) SetRTail(row int, d int64) {
	r := b.tuples[row].R
	r[len(r)-1] = d
}

// Add appends an existing tuple as-is, sharing its keys (no digit copy).
func (b *Builder) Add(t Tuple) { b.tuples = append(b.tuples, t) }

// Relation hands the accumulated tuples off as a relation. The builder
// must not be reused afterwards.
func (b *Builder) Relation() *Relation { return &Relation{Tuples: b.tuples} }

// Flat is the columnar physical layout of an interval relation: all L and
// R digits in one shared buffer at a fixed stride (keys shorter than the
// stride are zero-padded, which the trailing-zero comparison rule makes
// an identity). Row i's L digits occupy Digits[2·i·Stride : 2·i·Stride+Stride]
// and its R digits the following Stride slots.
//
// Lens optionally records the exact physical digit count of every key
// (Lens[2·i] for L, Lens[2·i+1] for R); nil means every key is a full
// stride. The padding digits beyond a key's length are always zero, so
// comparisons are length-oblivious either way — the lengths exist so that
// Tuple and Relation can hand out keys digit-identical to the row layout
// they were built from, which the batch runtime relies on.
type Flat struct {
	Stride int
	Labels []string
	Digits []int64
	Lens   []int32
	// Orig optionally maps each row to its index in the row-form relation
	// the chunk was filled from. The batch runtime threads it through its
	// filter kernels so the final materialization can hand back the
	// original tuples (aliasing their keys, like the materializing engine
	// operators do) instead of cloning digits. Nil when the rows have no row-form origin.
	Orig []int32

	rel *Relation // lazily materialized compatibility view
}

// FlatOf converts a relation to columnar form, preserving exact key
// lengths. The stride is the maximum physical key length (at least 1).
func FlatOf(r *Relation) *Flat {
	stride := 1
	for _, t := range r.Tuples {
		if len(t.L) > stride {
			stride = len(t.L)
		}
		if len(t.R) > stride {
			stride = len(t.R)
		}
	}
	f := NewFlat(stride, len(r.Tuples))
	for _, t := range r.Tuples {
		f.AppendTuple(t)
	}
	return f
}

// NewFlat returns an empty flat relation of the given stride with capacity
// for rows rows — the reusable chunk buffer of the batch runtime.
func NewFlat(stride, rows int) *Flat {
	if stride < 1 {
		stride = 1
	}
	return &Flat{
		Stride: stride,
		Labels: make([]string, 0, rows),
		Digits: make([]int64, 0, 2*stride*rows),
		Lens:   make([]int32, 0, 2*rows),
	}
}

// Restride resets the flat to zero rows at a (possibly different) stride,
// keeping its buffers — the chunk-recycling primitive of the batch
// runtime, where consecutive chains reuse one buffer at their own strides.
func (f *Flat) Restride(stride int) {
	if stride < 1 {
		stride = 1
	}
	f.Stride = stride
	f.Reset()
}

// Reserve grows the column buffers so at least rows rows fit at the
// current stride without further allocation, keeping existing rows. It
// turns the append-doubling a reused chunk would pay after Restride into
// at most one allocation per column.
func (f *Flat) Reserve(rows int) {
	if cap(f.Labels) < rows {
		s := make([]string, len(f.Labels), rows)
		copy(s, f.Labels)
		f.Labels = s
	}
	if n := 2 * rows * f.Stride; cap(f.Digits) < n {
		d := make([]int64, len(f.Digits), n)
		copy(d, f.Digits)
		f.Digits = d
	}
	if n := 2 * rows; cap(f.Lens) < n {
		l := make([]int32, len(f.Lens), n)
		copy(l, f.Lens)
		f.Lens = l
	}
}

// Reset truncates the flat relation to zero rows, keeping its buffers.
func (f *Flat) Reset() {
	f.Labels = f.Labels[:0]
	f.Digits = f.Digits[:0]
	f.Lens = f.Lens[:0]
	if f.Orig != nil {
		f.Orig = f.Orig[:0]
	}
	f.rel = nil
}

// AppendTuple copies one tuple into the next row. Keys longer than the
// stride panic — the caller fixed the stride from the same width bound the
// keys were built under.
func (f *Flat) AppendTuple(t Tuple) {
	if len(t.L) > f.Stride || len(t.R) > f.Stride {
		panic("interval: key wider than flat stride")
	}
	f.Labels = append(f.Labels, t.S)
	o := len(f.Digits)
	f.Digits = append(f.Digits, make([]int64, 2*f.Stride)...)
	copy(f.Digits[o:], t.L)
	copy(f.Digits[o+f.Stride:], t.R)
	f.Lens = append(f.Lens, int32(len(t.L)), int32(len(t.R)))
	f.rel = nil
}

// AppendRow copies row i of src (same stride) into the next row.
func (f *Flat) AppendRow(src *Flat, i int) {
	f.Labels = append(f.Labels, src.Labels[i])
	f.Digits = append(f.Digits, src.Digits[2*i*src.Stride:2*(i+1)*src.Stride]...)
	f.Lens = append(f.Lens, int32(src.LLen(i)), int32(src.RLen(i)))
	if src.Orig != nil {
		f.Orig = append(f.Orig, src.Orig[i])
	}
	f.rel = nil
}

// MoveRow overwrites row dst with row src within the same flat — the
// in-place compaction step of the batch filter kernels. No-op when
// dst == src, so a kernel that keeps everything copies nothing.
func (f *Flat) MoveRow(dst, src int) {
	if dst == src {
		return
	}
	w := 2 * f.Stride
	copy(f.Digits[dst*w:(dst+1)*w], f.Digits[src*w:(src+1)*w])
	f.Labels[dst] = f.Labels[src]
	if f.Lens != nil {
		f.Lens[2*dst], f.Lens[2*dst+1] = f.Lens[2*src], f.Lens[2*src+1]
	}
	if f.Orig != nil {
		f.Orig[dst] = f.Orig[src]
	}
	f.rel = nil
}

// Truncate shortens the flat to its first n rows.
func (f *Flat) Truncate(n int) {
	f.Labels = f.Labels[:n]
	f.Digits = f.Digits[:2*n*f.Stride]
	if f.Lens != nil {
		f.Lens = f.Lens[:2*n]
	}
	if f.Orig != nil {
		f.Orig = f.Orig[:n]
	}
	f.rel = nil
}

// Len returns the number of rows.
func (f *Flat) Len() int { return len(f.Labels) }

// LLen returns the exact digit count of row i's L key.
func (f *Flat) LLen(i int) int {
	if f.Lens == nil {
		return f.Stride
	}
	return int(f.Lens[2*i])
}

// RLen returns the exact digit count of row i's R key.
func (f *Flat) RLen(i int) int {
	if f.Lens == nil {
		return f.Stride
	}
	return int(f.Lens[2*i+1])
}

// L returns row i's left endpoint as a full-stride key view (no copy).
func (f *Flat) L(i int) Key {
	o := 2 * i * f.Stride
	return Key(f.Digits[o : o+f.Stride : o+f.Stride])
}

// R returns row i's right endpoint as a full-stride key view (no copy).
func (f *Flat) R(i int) Key {
	o := (2*i + 1) * f.Stride
	return Key(f.Digits[o : o+f.Stride : o+f.Stride])
}

// Tuple materializes row i as a tuple view; the keys alias the buffer at
// their exact physical lengths (capacity-capped, so appending to one can
// never clobber the neighbouring key).
func (f *Flat) Tuple(i int) Tuple {
	o := 2 * i * f.Stride
	ln, rn := f.LLen(i), f.RLen(i)
	return Tuple{
		S: f.Labels[i],
		L: Key(f.Digits[o : o+ln : o+ln]),
		R: Key(f.Digits[o+f.Stride : o+f.Stride+rn : o+f.Stride+rn]),
	}
}

// View returns a zero-copy window over rows [lo, hi) — the chunking
// primitive of the batch runtime. The view shares the parent's buffers.
func (f *Flat) View(lo, hi int) *Flat {
	v := &Flat{
		Stride: f.Stride,
		Labels: f.Labels[lo:hi],
		Digits: f.Digits[2*lo*f.Stride : 2*hi*f.Stride],
	}
	if f.Lens != nil {
		v.Lens = f.Lens[2*lo : 2*hi]
	}
	if f.Orig != nil {
		v.Orig = f.Orig[lo:hi]
	}
	return v
}

// CompareAt lexicographically compares the L keys of rows i and j without
// touching Key at all: a straight digit loop over buffer offsets.
func (f *Flat) CompareAt(i, j int) int {
	a, b := 2*i*f.Stride, 2*j*f.Stride
	d := f.Digits
	for k := 0; k < f.Stride; k++ {
		da, db := d[a+k], d[b+k]
		if da != db {
			if da < db {
				return -1
			}
			return 1
		}
	}
	return 0
}

// ComparePrefixAt compares the first n digits of row i's L key with the
// n-digit prefix p, allocation-free.
func (f *Flat) ComparePrefixAt(i int, p Key, n int) int {
	o := 2 * i * f.Stride
	d := f.Digits
	for k := 0; k < n; k++ {
		var dk int64
		if k < f.Stride {
			dk = d[o+k]
		}
		dp := p.Digit(k)
		if dk != dp {
			if dk < dp {
				return -1
			}
			return 1
		}
	}
	return 0
}

// Sort reorders the rows into L-key order: an index-permutation sort over
// the flat buffer (parallel for parallelism > 1 on large inputs) followed
// by one columnar gather pass.
func (f *Flat) Sort(parallelism int) {
	order := SortPerm(f.Len(), parallelism, f.CompareAt)
	labels := make([]string, len(f.Labels))
	digits := make([]int64, len(f.Digits))
	w := 2 * f.Stride
	for i, p := range order {
		labels[i] = f.Labels[p]
		copy(digits[i*w:(i+1)*w], f.Digits[p*w:(p+1)*w])
	}
	if f.Lens != nil {
		lens := make([]int32, len(f.Lens))
		for i, p := range order {
			lens[2*i], lens[2*i+1] = f.Lens[2*p], f.Lens[2*p+1]
		}
		f.Lens = lens
	}
	if f.Orig != nil {
		orig := make([]int32, len(f.Orig))
		for i, p := range order {
			orig[i] = f.Orig[p]
		}
		f.Orig = orig
	}
	f.Labels, f.Digits = labels, digits
	f.rel = nil
}

// IsSorted reports whether the rows are in L order.
func (f *Flat) IsSorted() bool {
	for i := 1; i < f.Len(); i++ {
		if f.CompareAt(i-1, i) > 0 {
			return false
		}
	}
	return true
}

// Relation materializes the compatibility view lazily: a relation whose
// tuple keys alias the flat buffer at their exact physical lengths (full
// stride when Lens is nil). The view is cached; callers must not mutate it.
func (f *Flat) Relation() *Relation {
	if f.rel == nil {
		tuples := make([]Tuple, f.Len())
		for i := range tuples {
			tuples[i] = f.Tuple(i)
		}
		f.rel = &Relation{Tuples: tuples}
	}
	return f.rel
}

// Footprint returns the resident size of the flat buffers in bytes — the
// unit of account for the runtime memory budget. Label string headers are
// counted; the label bytes themselves are shared with the document and
// excluded.
func (f *Flat) Footprint() int64 {
	return int64(len(f.Digits))*8 + int64(len(f.Labels))*tupleLabelBytes +
		int64(len(f.Lens))*4 + int64(len(f.Orig))*4
}

// tupleLabelBytes is the accounted per-row label cost: a string header
// (pointer + length) on a 64-bit platform.
const tupleLabelBytes = 16

// tupleHeaderBytes is the accounted size of a Tuple struct itself: one
// string header plus two slice headers.
const tupleHeaderBytes = 16 + 2*24

// TupleFootprint returns the accounted resident size of one row-form tuple:
// struct header plus its key digits.
func TupleFootprint(t Tuple) int64 {
	return tupleHeaderBytes + int64(len(t.L)+len(t.R))*8
}

// TuplesFootprint returns the accounted resident size of a tuple slice:
// tuple headers plus all key digits. Keys aliasing a shared arena are
// counted at their view length — close enough for budget enforcement,
// which needs a consistent measure rather than allocator truth.
func TuplesFootprint(ts []Tuple) int64 {
	n := int64(0)
	for i := range ts {
		n += TupleFootprint(ts[i])
	}
	return n
}

// RelationFootprint returns the accounted resident size of a row-form
// relation.
func RelationFootprint(r *Relation) int64 {
	if r == nil {
		return 0
	}
	return TuplesFootprint(r.Tuples)
}

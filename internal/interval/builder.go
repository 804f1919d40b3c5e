// Fixed-stride key storage. Section 4.3 of the paper observes that a
// practical implementation should "allocate a sufficient number of
// integer-valued attributes at query compilation time" for interval
// endpoints. The types here realize that remark physically: instead of one
// heap allocation per Key, the L/R digits of a derived relation live in
// shared []int64 chunks, at a fixed stride chosen from the width inference
// for the relations the engine operators build, with Keys (and Tuples) as
// zero-allocation views into them.
//
// Two pieces:
//
//   - KeyArena bump-allocates variable-length keys out of shared chunks —
//     the building block for every derived key.
//   - Builder constructs whole derived relations: every Rebase/Emit call
//     writes the environment prefix and the local digits straight into the
//     shared buffer, so an operator producing n tuples performs O(log n)
//     allocations instead of 2n.
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

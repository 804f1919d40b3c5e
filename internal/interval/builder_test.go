package interval

import (
	"math/rand"
	"slices"
	"testing"
)

func randomKey(rng *rand.Rand, maxLen int) Key {
	n := rng.Intn(maxLen + 1)
	k := make(Key, n)
	for i := range k {
		k[i] = int64(rng.Intn(5))
	}
	return k
}

func TestKeyArenaKeysSurviveChunkGrowth(t *testing.T) {
	var a KeyArena
	var keys []Key
	// Force many chunk rollovers; earlier keys must keep their digits.
	for i := 0; i < 4096; i++ {
		k := a.Alloc(3)
		k[0], k[1], k[2] = int64(i), int64(i+1), int64(i+2)
		keys = append(keys, k)
	}
	for i, k := range keys {
		if k[0] != int64(i) || k[1] != int64(i+1) || k[2] != int64(i+2) {
			t.Fatalf("key %d corrupted after chunk growth: %v", i, k)
		}
	}
	// Slots are capacity-capped: appending to one must not bleed into the
	// next slot.
	k := keys[0]
	k = append(k, 99)
	if keys[1][0] != 1 {
		t.Fatalf("append to one slot overwrote the next: %v", keys[1])
	}
	_ = k
}

func TestKeyArenaCloneAndRebase(t *testing.T) {
	var a KeyArena
	orig := Key{7, 8, 9}
	c := a.Clone(orig)
	if !c.Equal(orig) || len(c) != 3 {
		t.Fatalf("Clone = %v", c)
	}
	if a.Clone(nil) != nil {
		t.Fatal("Clone(nil) should be nil")
	}
	// Rebase must equal base.Extend(baseLen).Append(k.Suffix(depth)...).
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		base := randomKey(rng, 4)
		k := randomKey(rng, 6)
		baseLen := rng.Intn(5)
		depth := rng.Intn(4)
		// Extend panics when dropping nonzero digits; normalize base.
		if len(base) > baseLen {
			base = base[:baseLen]
		}
		want := base.Extend(baseLen).Append(k.Suffix(depth)...)
		got := a.Rebase(base, baseLen, k, depth)
		if !slices.Equal(got, want) {
			t.Fatalf("Rebase(%v, %d, %v, %d) = %v, want %v", base, baseLen, k, depth, got, want)
		}
	}
}

// TestBuilderMatchesPerKeyConstruction drives Builder through random
// Rebase/RebaseShift/Emit sequences and checks every emitted key is
// digit-for-digit (and length-for-length) what the per-key Append
// construction yields.
func TestBuilderMatchesPerKeyConstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 300; trial++ {
		depth := rng.Intn(3)
		stride := depth + 1 + rng.Intn(4)
		b := NewBuilder(stride, 0)
		var want []Tuple
		prefix := randomKey(rng, depth)
		b.SetBase(prefix, depth)
		base := prefix.Extend(depth)
		if rng.Intn(2) == 0 {
			d := int64(rng.Intn(3))
			b.PushBaseDigit(d)
			base = base.Append(d)
		}
		for i := 0; i < 10; i++ {
			l := randomKey(rng, stride-len(base)+depth)
			r := randomKey(rng, stride-len(base)+depth)
			switch rng.Intn(3) {
			case 0:
				b.Rebase("s", l, r, depth)
				want = append(want, Tuple{S: "s",
					L: base.Append(l.Suffix(depth)...),
					R: base.Append(r.Suffix(depth)...)})
			case 1:
				delta := int64(rng.Intn(4))
				b.RebaseShift("t", l, r, depth, delta)
				shift := func(k Key) Key {
					out := base.Append(k.Digit(depth) + delta)
					if len(k) > depth+1 {
						out = out.Append(k[depth+1:]...)
					}
					return out
				}
				want = append(want, Tuple{S: "t", L: shift(l), R: shift(r)})
			case 2:
				row := b.Emit("e", 0, 0)
				b.SetRTail(row, 5)
				want = append(want, Tuple{S: "e", L: base.Append(0), R: base.Append(5)})
			}
		}
		got := b.Relation()
		if len(got.Tuples) != len(want) {
			t.Fatalf("trial %d: %d tuples, want %d", trial, len(got.Tuples), len(want))
		}
		for i := range want {
			g, w := got.Tuples[i], want[i]
			if g.S != w.S || !slices.Equal(g.L, w.L) || !slices.Equal(g.R, w.R) {
				t.Fatalf("trial %d tuple %d: got %s (len %d/%d), want %s (len %d/%d)",
					trial, i, g, len(g.L), len(g.R), w, len(w.L), len(w.R))
			}
		}
	}
}

func randomRelation(rng *rand.Rand, n, maxLen int) *Relation {
	r := &Relation{Tuples: make([]Tuple, n)}
	for i := range r.Tuples {
		r.Tuples[i] = Tuple{S: "x", L: randomKey(rng, maxLen), R: randomKey(rng, maxLen)}
	}
	return r
}

func TestSortPermStable(t *testing.T) {
	vals := []int{3, 1, 3, 1, 2, 3, 1, 2, 2, 3, 1, 0}
	order := SortPerm(len(vals), func(a, b int) int { return vals[a] - vals[b] })
	for i := 1; i < len(order); i++ {
		va, vb := vals[order[i-1]], vals[order[i]]
		if va > vb || (va == vb && order[i-1] > order[i]) {
			t.Fatalf("unstable or unsorted at %d: %v", i, order)
		}
	}
}

// BenchmarkKeyCompare measures the digit-vector comparison every path
// stage and structural sort runs per row.
func BenchmarkKeyCompare(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	rel := randomRelation(rng, 1024, 4)
	b.Run("keys", func(b *testing.B) {
		b.ReportAllocs()
		s := 0
		for i := 0; i < b.N; i++ {
			s += Compare(rel.Tuples[i%1024].L, rel.Tuples[(i*7)%1024].L)
		}
		_ = s
	})
}

// BenchmarkStructuralSort measures the index-permutation sort of a
// relation's rows by L key.
func BenchmarkStructuralSort(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	const n = 20000
	rel := randomRelation(rng, n, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SortPerm(n, func(x, y int) int { return Compare(rel.Tuples[x].L, rel.Tuples[y].L) })
	}
}

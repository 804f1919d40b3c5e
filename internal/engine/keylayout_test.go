package engine

import (
	"math/rand"
	"slices"
	"testing"

	"dixq/internal/interval"
	"dixq/internal/xmltree"
)

// ops_test.go checks every operator's meaning against the xfn
// specifications through Decode, which neither sees a key's physical digit
// count nor minds an unsorted relation (it sorts first). This file pins
// those two physical properties of the key-constructing operators, on
// single- and multi-environment inputs at loop nesting 0 through 2:
// every output key has exactly the digit count the width arithmetic of
// core/exec.go assumes, and every output is already in L order.

// sameRelation asserts two relations are identical tuple-for-tuple,
// including the physical digit count of every key.
func sameRelation(t *testing.T, what string, got, want *interval.Relation) {
	t.Helper()
	if len(got.Tuples) != len(want.Tuples) {
		t.Fatalf("%s: %d tuples, want %d", what, len(got.Tuples), len(want.Tuples))
	}
	for i := range want.Tuples {
		g, w := got.Tuples[i], want.Tuples[i]
		if g.S != w.S || !slices.Equal(g.L, w.L) || !slices.Equal(g.R, w.R) {
			t.Fatalf("%s: tuple %d is %s (digits %d/%d), want %s (digits %d/%d)",
				what, i, g, len(g.L), len(g.R), w, len(w.L), len(w.R))
		}
	}
}

// keyLens returns the sorted multiset of (len L, len R) pairs of rel's
// tuples, each grown by delta digits, plus the extra pairs.
func keyLens(rel *interval.Relation, delta int, extra ...[2]int) [][2]int {
	out := make([][2]int, len(rel.Tuples), len(rel.Tuples)+len(extra))
	for i, t := range rel.Tuples {
		out[i] = [2]int{len(t.L) + delta, len(t.R) + delta}
	}
	out = append(out, extra...)
	slices.SortFunc(out, func(a, b [2]int) int {
		if a[0] != b[0] {
			return a[0] - b[0]
		}
		return a[1] - b[1]
	})
	return out
}

// checkLayout asserts out is L-sorted and carries exactly the wanted
// multiset of key digit counts.
func checkLayout(t *testing.T, what string, out *interval.Relation, want [][2]int) {
	t.Helper()
	if !out.IsSorted() {
		t.Fatalf("%s: output not in L order:\n%s", what, out)
	}
	if got := keyLens(out, 0); !slices.Equal(got, want) {
		t.Fatalf("%s: key digit counts %v, want %v", what, got, want)
	}
}

// checkWidths asserts out is L-sorted and that the set of key digit counts
// it uses is in's set grown by delta — for the operators that replicate
// input tuples, where the multiset is not a function of the input alone.
func checkWidths(t *testing.T, what string, out, in *interval.Relation, delta int) {
	t.Helper()
	if !out.IsSorted() {
		t.Fatalf("%s: output not in L order:\n%s", what, out)
	}
	got, want := slices.Compact(keyLens(out, 0)), slices.Compact(keyLens(in, delta))
	if len(out.Tuples) < len(in.Tuples) || !slices.Equal(got, want) {
		t.Fatalf("%s: %d tuples with digit counts %v, want at least %d with %v",
			what, len(out.Tuples), got, len(in.Tuples), want)
	}
}

// uniform returns n copies of the digit-count pair (w, w).
func uniform(n, w int) [][2]int {
	out := make([][2]int, n)
	for i := range out {
		out[i] = [2]int{w, w}
	}
	return out
}

func TestKeyLayoutPerOperator(t *testing.T) {
	rng := rand.New(rand.NewSource(20030610))
	for trial := 0; trial < 200; trial++ {
		rel := interval.Encode(xmltree.RandomForest(rng, 14))
		rel2 := interval.Encode(xmltree.RandomForest(rng, 8))

		// No loop: the whole document is one environment.
		checkOpLayouts(t, Index{interval.Key{}}, 0, rel, rel2)

		// One loop: one environment per top-level tree (a for-loop entry).
		roots := Roots(rel)
		index1 := EnterIndex(roots)
		bound := BindVar(rel, roots, 0, 1)
		checkLayout(t, "BindVar", bound, keyLens(rel, 1))
		checkLayout(t, "Positions", Positions(roots, 0, 1), uniform(len(roots.Tuples), 2))
		emb, err := EmbedOuter(index1, 0, 1, rel2, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(emb.Tuples) != len(index1)*len(rel2.Tuples) {
			t.Fatalf("EmbedOuter: %d tuples, want %d x %d", len(emb.Tuples), len(index1), len(rel2.Tuples))
		}
		if len(index1) > 0 {
			checkWidths(t, "EmbedOuter", emb, rel2, 1)
		}
		checkOpLayouts(t, index1, 1, bound, emb)

		// Two loops: a nested for-loop over the depth-1 bindings, whose
		// domain mixes key widths (reversed trees carry one more digit), so
		// the inner environments sit at depth 3.
		mixed := Concat(index1, 1, bound, Reverse(emb, 1))
		roots2 := Roots(mixed)
		if len(roots2.Tuples) == 0 {
			continue
		}
		index2 := EnterIndex(roots2)
		bound2 := BindVar(mixed, roots2, 1, 3)
		checkLayout(t, "BindVar/2", bound2, keyLens(mixed, 2))
		checkLayout(t, "Positions/2", Positions(roots2, 1, 3), uniform(len(roots2.Tuples), 4))
		emb2, err := EmbedOuter(index2, 1, 3, bound, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkWidths(t, "EmbedOuter/2", emb2, bound, 2)
		checkOpLayouts(t, index2, 3, bound2, emb2)
	}
}

// checkOpLayouts checks every unary/binary key-constructing operator for
// one environment setting. a and b are relations whose tuples carry
// depth-digit environment prefixes from index.
func checkOpLayouts(t *testing.T, index Index, depth int, a, b *interval.Relation) {
	t.Helper()
	grown := keyLens(a, 1)
	checkLayout(t, "Reverse", Reverse(a, depth), grown)
	sorted := unbudgeted(SortTrees(a, depth, 1, nil))
	checkLayout(t, "SortTrees", sorted, grown)
	sameRelation(t, "SortTrees/par4", unbudgeted(SortTrees(a, depth, 4, nil)), sorted)
	checkWidths(t, "SubtreesDFS", SubtreesDFS(a, depth), a, 1)

	// Construct adds one (depth+1)-digit root per environment and shifts
	// the children in place.
	checkLayout(t, "Construct", Construct(index, depth, "el", a),
		keyLens(a, 0, uniform(len(index), depth+1)...))

	// Concat keeps both inputs' digit counts, whichever side is shifted.
	for _, p := range [][2]*interval.Relation{{a, b}, {b, a}} {
		both := &interval.Relation{Tuples: append(slices.Clone(p[0].Tuples), p[1].Tuples...)}
		checkLayout(t, "Concat", Concat(index, depth, p[0], p[1]), keyLens(both, 0))
	}
	checkLayout(t, "Count", Count(index, depth, a), uniform(len(index), depth+1))
}

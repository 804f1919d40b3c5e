package interval

import (
	"slices"
	"testing"
)

// runsSource is a relation of n one-digit leaves, each with its own label.
func runsSource(n int) []Tuple {
	src := make([]Tuple, n)
	for i := range src {
		src[i] = Tuple{S: string(rune('a' + i)), L: Key{int64(2 * i)}, R: Key{int64(2*i + 1)}}
	}
	return src
}

func TestRunsEmpty(t *testing.T) {
	var rs Runs
	rs.Add(3, 3) // an empty range records nothing
	if len(rs) != 0 {
		t.Fatalf("runs = %v, want none", rs)
	}
	if got := rs.Of(runsSource(4)); got != nil {
		t.Fatalf("Of = %v, want nil", got)
	}
}

// TestRunsOneRunIsAView pins the single-run case: the result aliases the
// source rows, its capacity is its length, and an append to it copies
// instead of writing into the source.
func TestRunsOneRunIsAView(t *testing.T) {
	src := runsSource(6)
	want := slices.Clone(src)
	var rs Runs
	for i := 1; i < 4; i++ {
		rs.Add(i, i+1)
	}
	got := rs.Of(src)
	if len(got) != 3 || cap(got) != 3 {
		t.Fatalf("len %d cap %d, want 3 and 3", len(got), cap(got))
	}
	if &got[0] != &src[1] {
		t.Fatal("a single run was copied, want a view of the source")
	}
	grown := append(got, Tuple{S: "x", L: Key{99}, R: Key{100}})
	grown[0].S = "y"
	for i := range src {
		if src[i].S != want[i].S {
			t.Fatalf("source row %d became %q after an append to the view", i, src[i].S)
		}
	}
}

func TestRunsMergeAdjacent(t *testing.T) {
	var rs Runs
	rs.Add(0, 2)
	rs.Add(2, 3)
	rs.Add(5, 6)
	rs.Add(6, 9)
	if want := (Runs{{0, 3}, {5, 9}}); !slices.Equal(rs, want) {
		t.Fatalf("runs = %v, want %v", rs, want)
	}
}

// TestRunsManyRunsCopyExactly pins the multi-run case: one copy of the
// kept rows, in order, with no spare capacity.
func TestRunsManyRunsCopyExactly(t *testing.T) {
	src := runsSource(10)
	var rs Runs
	for _, i := range []int{0, 1, 4, 7, 8, 9} {
		rs.Add(i, i+1)
	}
	if len(rs) != 3 {
		t.Fatalf("runs = %v, want 3 maximal runs", rs)
	}
	got := rs.Of(src)
	if len(got) != 6 || cap(got) != 6 {
		t.Fatalf("len %d cap %d, want 6 and 6", len(got), cap(got))
	}
	if &got[0] == &src[0] {
		t.Fatal("several runs share the source, want a copy")
	}
	for j, i := range []int{0, 1, 4, 7, 8, 9} {
		if got[j].S != src[i].S {
			t.Fatalf("row %d is %s, want %s", j, got[j], src[i])
		}
	}
}

package engine

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"testing"

	"dixq/internal/interval"
	"dixq/internal/xfn"
	"dixq/internal/xmltree"
)

// unbudgeted drops the stats and error of an unbudgeted group reorder,
// which never spills and never fails.
func unbudgeted(rel *interval.Relation, _ SpillStats, _ error) *interval.Relation { return rel }

// randomOrdForest builds a forest of order-by wrapper trees, the shape the
// order-by desugaring feeds OrdBy: <#ord><#key><#k1>…</#k1>…</#key><#val>…
// </#val></#ord>. Key parts come from a small pool mixing numbers, strings
// and empty parts, and part counts vary, so equal keys (stability), the
// numeric-vs-string order and the shorter-first rule all occur; a few
// wrappers have no <#key> at all. The first wrapper always has a key part,
// so a non-empty forest always has key tuples to spill.
func randomOrdForest(rng *rand.Rand) xmltree.Forest {
	pool := []string{"1", "2", "10", "2.5", "a", "b", ""}
	var f xmltree.Forest
	for n := rng.Intn(8); len(f) < n; {
		k := rng.Intn(3)
		if len(f) == 0 {
			k++
		}
		var parts []*xmltree.Node
		for ; k > 0; k-- {
			part := xmltree.NewElement("#k1")
			if s := pool[rng.Intn(len(pool))]; s != "" {
				part.Children = xmltree.Forest{xmltree.NewText(s)}
			}
			parts = append(parts, part)
		}
		val := xmltree.NewElement("#val", xmltree.RandomForest(rng, 4)...)
		wrapper := xmltree.NewElement("#ord", xmltree.NewElement("#key", parts...), val)
		if len(f) > 0 && rng.Intn(6) == 0 {
			wrapper.Children = wrapper.Children[1:]
		}
		f = append(f, wrapper)
	}
	return f
}

// TestGroupReordersUnderBudget is the property test of the three group
// reorders over the one budgeted sort. On random forests, in one
// environment (depth 0) and in several (depth 1), SortTrees, Distinct and
// OrdBy must answer their xfn specification, and every budget must be
// digit-identical to the unbudgeted run. A 1-byte budget spills every
// non-empty group; a zero budget must spill nothing; every sort leaves the
// spill directory empty.
func TestGroupReordersUnderBudget(t *testing.T) {
	dir := t.TempDir()

	type reorder func(rel *interval.Relation, depth int, spill *SpillConfig) (*interval.Relation, SpillStats, error)
	ordBy := func(dir string) reorder {
		return func(rel *interval.Relation, depth int, spill *SpillConfig) (*interval.Relation, SpillStats, error) {
			return OrdBy(rel, depth, dir, spill)
		}
	}
	treeForest := func(rng *rand.Rand) xmltree.Forest { return xmltree.RandomForest(rng, 14) }
	ops := []struct {
		name   string
		op     reorder
		spec   func(xmltree.Forest) xmltree.Forest
		forest func(*rand.Rand) xmltree.Forest
	}{
		{"SortTrees", SortTrees, xfn.Sort, treeForest},
		{"Distinct", Distinct, xfn.Distinct, treeForest},
		{"OrdBy/asc", ordBy("asc"), func(f xmltree.Forest) xmltree.Forest { return xfn.OrdBy("asc", f) }, randomOrdForest},
		{"OrdBy/desc", ordBy("desc"), func(f xmltree.Forest) xmltree.Forest { return xfn.OrdBy("desc", f) }, randomOrdForest},
	}

	rng := rand.New(rand.NewSource(20030611))
	for trial := 0; trial < 30; trial++ {
		for _, o := range ops {
			for _, depth := range []int{0, 1} {
				forests := []xmltree.Forest{o.forest(rng)}
				in := interval.Encode(forests[0])
				if depth == 1 {
					for n := rng.Intn(3); n >= 0; n-- {
						forests = append(forests, o.forest(rng))
					}
					_, in = encodeInEnvs(forests)
				}
				want := unbudgeted(o.op(in, depth, nil))
				for i, forest := range forests {
					var got xmltree.Forest
					if depth == 0 {
						got, _ = interval.Decode(want)
					} else {
						got = decodeEnv(t, want, int64(i))
					}
					if spec := o.spec(forest); !got.Equal(spec) {
						t.Fatalf("%s depth %d trial %d env %d:\n in  %s\n got %s\nwant %s",
							o.name, depth, trial, i, forest, got, spec)
					}
				}

				for _, budget := range []int64{0, 1, 200, 4096} {
					what := fmt.Sprintf("%s depth %d trial %d budget %d", o.name, depth, trial, budget)
					got, stats, err := o.op(in, depth, &SpillConfig{MaxBytes: budget, Dir: dir})
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					sameRelation(t, what, got, want)
					if left, _ := os.ReadDir(dir); len(left) != 0 {
						t.Fatalf("%s: %d run files left in the spill directory", what, len(left))
					}
					switch {
					case budget == 0 && stats.Runs != 0:
						t.Fatalf("%s: unbounded sort spilled %d runs", what, stats.Runs)
					case budget == 1 && len(in.Tuples) > 0 && stats.Runs == 0:
						t.Fatalf("%s: 1-byte budget over %d tuples spilled nothing", what, len(in.Tuples))
					}
				}
			}
		}
	}
}

// failingWriter accepts the first n bytes written to it, then writes short:
// with err set it fails, otherwise it reports the short count alone.
type failingWriter struct {
	n   int
	err error
}

func (w *failingWriter) Write(p []byte) (int, error) {
	k := min(len(p), w.n)
	w.n -= k
	if k < len(p) {
		return k, w.err
	}
	return k, nil
}

// TestRunWriterFailsPartWay drives the run writer into a writer that stops
// part-way through a run: it must return a wrapped error, never a partial
// success.
func TestRunWriterFailsPartWay(t *testing.T) {
	positions := []int{5, 300, 2, 70000, 1}
	errDisk := errors.New("disk full")
	for _, w := range []*failingWriter{{n: 0, err: errDisk}, {n: 3, err: errDisk}, {n: 3}} {
		want, accepted := w.err, w.n
		if want == nil {
			want = io.ErrShortWrite
		}
		err := writeRun(w, positions)
		if !errors.Is(err, want) || !strings.Contains(err.Error(), "engine: write run") {
			t.Errorf("writer failing after %d bytes: err = %v, want a wrapped %v", accepted, err, want)
		}
	}
}

// TestRunReaderRejectsCorruption feeds the run reader truncated and
// out-of-range input: each must surface as a wrapped error, not a panic
// or a position outside the sort.
func TestRunReaderRejectsCorruption(t *testing.T) {
	var valid bytes.Buffer
	if err := writeRun(&valid, []int{3, 0, 200, 1}); err != nil {
		t.Fatal(err)
	}
	read := func(data []byte, n int) ([]int, error) {
		st := &runStream{br: bufio.NewReader(bytes.NewReader(data))}
		var got []int
		for {
			ok, err := st.advance(n)
			if err != nil || !ok {
				return got, err
			}
			got = append(got, st.cur)
		}
	}
	if got, err := read(valid.Bytes(), 201); err != nil || fmt.Sprint(got) != "[3 0 200 1]" {
		t.Fatalf("valid run read back %v, %v", got, err)
	}
	cases := []struct {
		name string
		data []byte
		n    int
		want string
	}{
		{"truncated varint", valid.Bytes()[:3], 201, "unexpected EOF"},
		{"position out of range", valid.Bytes(), 200, "outside [0, 200)"},
		{"overflowing varint", bytes.Repeat([]byte{0xff}, 11), 201, "overflow"},
	}
	for _, tc := range cases {
		if _, err := read(tc.data, tc.n); err == nil || !strings.Contains(err.Error(), "engine: read run") ||
			!strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want a wrapped %q", tc.name, err, tc.want)
		}
	}
}

// TestMergeRejectsCorruptRuns spills two runs, corrupts one on disk and
// merges: truncated, out-of-range, short and repeated runs must all fail
// the sort with a wrapped error and leave no run file behind.
func TestMergeRejectsCorruptRuns(t *testing.T) {
	const n = 6
	cases := []struct {
		name string
		run  []byte // replaces the first run's contents
		want string
	}{
		{"truncated varint", []byte{0x80}, "unexpected EOF"},
		{"position out of range", []byte{0, 1, n}, "outside [0, 6)"},
		{"short run", []byte{0, 1}, "runs hold 5 positions, want 6"},
		{"repeated position", []byte{0, 1, 1}, "position 1 repeated"},
	}
	for _, tc := range cases {
		dir := t.TempDir()
		s := &spiller{dir: dir, cmp: func(a, b int) int { return b - a }}
		if err := s.flush(0, 3, 1); err != nil {
			t.Fatal(err)
		}
		if err := s.flush(3, 5, 1); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(s.runs[0], tc.run, 0o600); err != nil {
			t.Fatal(err)
		}
		_, err := s.merge(n, []int{5}, nil)
		s.close()
		if err == nil || !strings.Contains(err.Error(), "engine: read run") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want a wrapped %q", tc.name, err, tc.want)
		}
		if left, _ := os.ReadDir(dir); len(left) != 0 {
			t.Errorf("%s: %d run files left behind", tc.name, len(left))
		}
	}
}

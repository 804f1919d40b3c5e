package stats

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"dixq/internal/index"
	"dixq/internal/interval"
	"dixq/internal/update"
	"dixq/internal/xmark"
	"dixq/internal/xmltree"
)

func handForest() xmltree.Forest {
	return xmltree.Forest{
		xmltree.NewElement("a",
			xmltree.NewAttribute("x", "1"),
			xmltree.NewElement("b", xmltree.NewText("t")),
			xmltree.NewElement("b", xmltree.NewText("u")),
			xmltree.NewElement("c",
				xmltree.NewElement("b", xmltree.NewText("t")),
			),
		),
	}
}

func TestCollectHandDoc(t *testing.T) {
	rel := interval.Encode(handForest())
	s := Collect(rel)
	if s.Tuples != int64(len(rel.Tuples)) {
		t.Fatalf("Tuples = %d, want %d", s.Tuples, len(rel.Tuples))
	}
	wantLabels := map[string]int64{"<a>": 1, "<b>": 3, "<c>": 1, "@x": 1}
	if !reflect.DeepEqual(s.Labels, wantLabels) {
		t.Fatalf("Labels = %v, want %v", s.Labels, wantLabels)
	}
	// /a/b occurs twice, each subtree is the b plus one text child.
	ab := s.Paths["/<a>/<b>"]
	if ab.Count != 2 || ab.SubtreeRows != 4 {
		t.Fatalf("/<a>/<b> = %+v, want Count 2 SubtreeRows 4", ab)
	}
	// The two /a/b texts are "t" and "u": distinct 2.
	abt := s.Paths["/<a>/<b>/#text"]
	if abt.Count != 2 || abt.DistinctText != 2 || abt.SubtreeRows != 2 {
		t.Fatalf("/<a>/<b>/#text = %+v, want Count 2 DistinctText 2 SubtreeRows 2", abt)
	}
	// The single /a/c/b text is "t": distinct 1.
	acbt := s.Paths["/<a>/<c>/<b>/#text"]
	if acbt.Count != 1 || acbt.DistinctText != 1 {
		t.Fatalf("/<a>/<c>/<b>/#text = %+v, want Count 1 DistinctText 1", acbt)
	}
	if got := s.LabelCount("<b>"); got != 3 {
		t.Fatalf("LabelCount(<b>) = %d, want 3", got)
	}
	if got := s.LabelCount("t"); got != 4 { // all text rows: "1", t, u, t
		t.Fatalf("LabelCount(text) = %d, want 4", got)
	}
	if got := s.LabelCount("<zzz>"); got != 0 {
		t.Fatalf("LabelCount(<zzz>) = %d, want 0", got)
	}
}

// TestCollectMatchesIndex is the cross-structure property: over random
// forests the stats paths are exactly the dataguide paths, per-path
// counts equal the class instance counts, per-label counts equal the
// posting lengths, and SubtreeRows equals the sum of End-range sizes.
func TestCollectMatchesIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(20030609))
	for i := 0; i < 200; i++ {
		f := xmltree.RandomForest(rng, 60)
		rel := interval.Encode(f)
		s := Collect(rel)
		ix := index.Build(rel)
		if got, want := s.PathNames(), ix.Paths(); !reflect.DeepEqual(got, want) {
			t.Fatalf("forest %d %s:\nstats paths     %q\ndataguide paths %q", i, f, got, want)
		}
		for label, count := range s.Labels {
			res := ix.Resolve(nil)
			_ = res
			if !ix.HasLabel(label) {
				t.Fatalf("forest %d: stats label %q missing from postings", i, label)
			}
			_ = count
		}
		var pathRows int64
		for _, ps := range s.Paths {
			pathRows += ps.Count
		}
		if pathRows != s.Tuples {
			t.Fatalf("forest %d: path counts sum to %d, want %d", i, pathRows, s.Tuples)
		}
	}
}

func TestCollectSubtreeRowsAgainstEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		f := xmltree.RandomForest(rng, 40)
		rel := interval.Encode(f)
		s := Collect(rel)
		ix := index.Build(rel)
		// Recompute per-path subtree rows from the index End array.
		type frame struct {
			row  int
			path string
		}
		want := map[string]int64{}
		var stack []frame
		for r := range rel.Tuples {
			for len(stack) > 0 && ix.End[stack[len(stack)-1].row] <= int32(r) {
				stack = stack[:len(stack)-1]
			}
			prefix := ""
			if len(stack) > 0 {
				prefix = stack[len(stack)-1].path
			}
			label := rel.Tuples[r].S
			if xmltree.LabelKind(label) == xmltree.Text {
				label = "#text"
			}
			p := prefix + "/" + label
			want[p] += int64(ix.End[r] - int32(r))
			stack = append(stack, frame{r, p})
		}
		for p, ps := range s.Paths {
			if ps.SubtreeRows != want[p] {
				t.Fatalf("forest %d path %s: SubtreeRows %d, want %d", i, p, ps.SubtreeRows, want[p])
			}
		}
	}
}

func TestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 50; i++ {
		f := xmltree.RandomForest(rng, 80)
		s := Collect(interval.Encode(f))
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		if err := s.Write(w); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		got, err := Read(bufio.NewReader(bytes.NewReader(buf.Bytes())))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, s) {
			t.Fatalf("forest %d: round-trip mismatch:\ngot  %+v\nwant %+v", i, got, s)
		}
		// Determinism: a second serialization is byte-identical.
		var buf2 bytes.Buffer
		w2 := bufio.NewWriter(&buf2)
		if err := got.Write(w2); err != nil {
			t.Fatal(err)
		}
		w2.Flush()
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatalf("forest %d: serialization not deterministic", i)
		}
	}
}

func TestCodecTruncation(t *testing.T) {
	s := Collect(interval.Encode(handForest()))
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := s.Write(w); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut++ {
		if _, err := Read(bufio.NewReader(bytes.NewReader(full[:cut]))); err == nil {
			t.Fatalf("truncation at %d/%d bytes decoded without error", cut, len(full))
		}
	}
}

func TestCollectSet(t *testing.T) {
	cat := map[string]*interval.Relation{
		"d1": interval.Encode(handForest()),
		"d2": interval.Encode(xmltree.Forest{xmltree.NewElement("r")}),
	}
	set := CollectSet(cat)
	if len(set.Docs) != 2 {
		t.Fatalf("CollectSet produced %d docs, want 2", len(set.Docs))
	}
	if set.Doc("d2").Tuples != 1 {
		t.Fatalf("d2 tuples = %d, want 1", set.Doc("d2").Tuples)
	}
	if set.Doc("missing") != nil {
		t.Fatal("Doc(missing) should be nil")
	}
	var nilSet *Set
	if nilSet.Doc("d1") != nil {
		t.Fatal("nil Set.Doc should be nil")
	}
}

func TestPathNamesSorted(t *testing.T) {
	s := Collect(interval.Encode(handForest()))
	names := s.PathNames()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("PathNames not sorted: %q", names)
	}
}

// collectByString is the original Collect, which renders every tuple's
// path as a string: the oracle the interned implementation must match.
func collectByString(rel *interval.Relation) *DocStats {
	s := &DocStats{
		Tuples: int64(len(rel.Tuples)),
		Labels: map[string]int64{},
		Paths:  map[string]PathStats{},
	}
	type frame struct {
		row  int
		path string
	}
	distinct := map[string]map[string]struct{}{}
	var stack []frame
	pop := func(f frame, end int) {
		ps := s.Paths[f.path]
		ps.Count++
		ps.SubtreeRows += int64(end - f.row)
		s.Paths[f.path] = ps
	}
	for i, t := range rel.Tuples {
		for len(stack) > 0 && interval.Compare(rel.Tuples[stack[len(stack)-1].row].R, t.L) < 0 {
			pop(stack[len(stack)-1], i)
			stack = stack[:len(stack)-1]
		}
		prefix := ""
		if len(stack) > 0 {
			prefix = stack[len(stack)-1].path
		}
		var path string
		if xmltree.LabelKind(t.S) == xmltree.Text {
			path = prefix + "/" + textSegment
			set := distinct[path]
			if set == nil {
				set = map[string]struct{}{}
				distinct[path] = set
			}
			set[t.S] = struct{}{}
		} else {
			path = prefix + "/" + t.S
			s.Labels[t.S]++
		}
		stack = append(stack, frame{i, path})
	}
	for _, f := range stack {
		pop(f, len(rel.Tuples))
	}
	for path, set := range distinct {
		ps := s.Paths[path]
		ps.DistinctText = int64(len(set))
		s.Paths[path] = ps
	}
	return s
}

// TestCollectMatchesStringPaths checks the interned Collect against the
// string-path oracle on random forests, on an XMark document, and on
// relations whose keys grew to several digits through random updates.
func TestCollectMatchesStringPaths(t *testing.T) {
	check := func(what string, rel *interval.Relation) {
		t.Helper()
		if got, want := Collect(rel), collectByString(rel); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s:\ngot  %+v\nwant %+v", what, got, want)
		}
	}
	check("empty", &interval.Relation{})
	check("xmark", interval.Encode(xmark.Generate(xmark.Config{ScaleFactor: 0.002, Seed: 3})))
	rng := rand.New(rand.NewSource(27))
	for i := 0; i < 200; i++ {
		check(fmt.Sprintf("forest %d", i), interval.Encode(xmltree.RandomForest(rng, 60)))
	}
	for i := 0; i < 20; i++ {
		rel := interval.Encode(xmltree.RandomForest(rng, 30))
		for u := 0; u < 15 && rel.Len() > 0; u++ {
			target := rel.Tuples[rng.Intn(rel.Len())].L
			frag := xmltree.RandomForest(rng, 5)
			var err error
			switch rng.Intn(4) {
			case 0:
				rel, err = update.InsertAfter(rel, target, frag)
			case 1:
				rel, err = update.InsertBefore(rel, target, frag)
			case 2:
				rel, err = update.AppendChild(rel, target, frag)
			default:
				rel, err = update.PrependChild(rel, target, frag)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if rel.MaxKeyLen() < 2 {
			t.Fatalf("updated relation %d kept one-digit keys", i)
		}
		check(fmt.Sprintf("updated relation %d", i), rel)
	}
}

// BenchmarkCollect collects the statistics of the XMark sf 0.1 document
// (143k tuples), once per catalog add or reindex.
func BenchmarkCollect(b *testing.B) {
	rel := interval.Encode(xmark.Generate(xmark.Config{ScaleFactor: 0.1, Seed: 1}))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Collect(rel)
	}
}

package stats

import (
	"cmp"
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

// annotation is one dataguide class's annotations: instance count,
// subtree rows and distinct text values.
type annotation struct{ count, subtreeRows, distinct int64 }

// eachClass calls fn with every class of ix, parents first.
func eachClass(ix *DocStats, fn func(*index.Class)) {
	var walk func([]*index.Class)
	walk = func(classes []*index.Class) {
		for _, c := range classes {
			fn(c)
			walk(c.Children())
		}
	}
	walk(ix.TopClasses())
}

// annotations renders every class of ix with its annotations, keyed by
// its class path.
func annotations(ix *DocStats) map[string]annotation {
	out := map[string]annotation{}
	eachClass(ix, func(c *index.Class) {
		out[c.Path()] = annotation{c.Count(), c.SubtreeRows(), c.DistinctText()}
	})
	return out
}

func sortedPaths(a map[string]annotation) []string {
	paths := make([]string, 0, len(a))
	for p := range a {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

// labelCounts sums the instance counts of the classes of every element
// and attribute label, and of all text classes under "#text".
func labelCounts(ix *DocStats) map[string]int64 {
	out := map[string]int64{}
	eachClass(ix, func(c *index.Class) { out[cmp.Or(c.Label(), "#text")] += c.Count() })
	return out
}

func TestCollectHandDoc(t *testing.T) {
	rel := interval.Encode(handForest())
	s := Collect(rel)
	if len(s.End) != len(rel.Tuples) {
		t.Fatalf("End covers %d rows, want %d", len(s.End), len(rel.Tuples))
	}
	// All text rows count under #text: "1", t, u, t.
	wantLabels := map[string]int64{"<a>": 1, "<b>": 3, "<c>": 1, "@x": 1, "#text": 4}
	if got := labelCounts(s); !reflect.DeepEqual(got, wantLabels) {
		t.Fatalf("label counts = %v, want %v", got, wantLabels)
	}
	a := annotations(s)
	// /a/b occurs twice, each subtree is the b plus one text child.
	if ab := a["/<a>/<b>"]; ab.count != 2 || ab.subtreeRows != 4 {
		t.Fatalf("/<a>/<b> = %+v, want count 2 subtreeRows 4", ab)
	}
	// The two /a/b texts are "t" and "u": distinct 2.
	if abt := a["/<a>/<b>/#text"]; abt.count != 2 || abt.distinct != 2 || abt.subtreeRows != 2 {
		t.Fatalf("/<a>/<b>/#text = %+v, want count 2 distinct 2 subtreeRows 2", abt)
	}
	// The single /a/c/b text is "t": distinct 1.
	if acbt := a["/<a>/<c>/<b>/#text"]; acbt.count != 1 || acbt.distinct != 1 {
		t.Fatalf("/<a>/<c>/<b>/#text = %+v, want count 1 distinct 1", acbt)
	}
	// The handle reads what the rendered view shows.
	b := s.TopClasses()[0].Child("<b>")
	if b == nil || b.Count() != 2 || b.Child("").DistinctText() != 2 || b.Child("<zzz>") != nil {
		t.Fatalf("class /<a>/<b> read through its handle: %+v", b)
	}
}

// TestCollectMatchesIndex is the cross-structure property: over random
// forests the annotated classes are exactly the dataguide paths of an
// index built apart, every element and attribute label counted has a
// posting, and the instance counts sum to the relation's rows.
func TestCollectMatchesIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(20030609))
	for i := 0; i < 200; i++ {
		f := xmltree.RandomForest(rng, 60)
		rel := interval.Encode(f)
		a := annotations(Collect(rel))
		ix := index.Build(rel)
		paths := sortedPaths(a)
		if want := ix.Paths(); !reflect.DeepEqual(paths, want) {
			t.Fatalf("forest %d %s:\nannotated paths %q\ndataguide paths %q", i, f, paths, want)
		}
		for label := range labelCounts(ix) {
			if label != "#text" && !ix.HasLabel(label) {
				t.Fatalf("forest %d: label %q missing from postings", i, label)
			}
		}
		var pathRows int64
		for _, ps := range a {
			pathRows += ps.count
		}
		if pathRows != int64(rel.Len()) {
			t.Fatalf("forest %d: path counts sum to %d, want %d", i, pathRows, rel.Len())
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
		for p, ps := range annotations(s) {
			if ps.subtreeRows != want[p] {
				t.Fatalf("forest %d path %s: subtree rows %d, want %d", i, p, ps.subtreeRows, want[p])
			}
		}
	}
}

// TestCollectSet: the statistics of a catalog are its index set, one
// index per document over that document's own relation.
func TestCollectSet(t *testing.T) {
	cat := map[string]*interval.Relation{
		"d1": interval.Encode(handForest()),
		"d2": interval.Encode(xmltree.Forest{xmltree.NewElement("r")}),
	}
	var set *Set = index.BuildSet(cat)
	if len(set.Docs) != 2 {
		t.Fatalf("BuildSet produced %d docs, want 2", len(set.Docs))
	}
	if d2 := set.Docs["d2"]; d2.Rel != cat["d2"] || len(d2.End) != 1 || d2.TopClasses()[0].Count() != 1 {
		t.Fatalf("d2 indexed as %+v, want its one-row relation", d2)
	}
	if set.Docs["missing"] != nil {
		t.Fatal("a missing document has an index")
	}
}

func TestPathNamesSorted(t *testing.T) {
	s := Collect(interval.Encode(handForest()))
	names := s.Paths()
	if !sort.StringsAreSorted(names) || len(names) != len(annotations(s)) {
		t.Fatalf("Paths not sorted or not one per class: %q", names)
	}
}

// collectByString computes the annotations in a stack pass of its own
// over the relation, rendering every tuple's path as a string: the oracle
// the index's annotations must match, however they were derived.
func collectByString(rel *interval.Relation) map[string]annotation {
	s := map[string]annotation{}
	type frame struct {
		row  int
		path string
	}
	distinct := map[string]map[string]struct{}{}
	var stack []frame
	pop := func(f frame, end int) {
		ps := s[f.path]
		ps.count++
		ps.subtreeRows += int64(end - f.row)
		s[f.path] = ps
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
			path = prefix + "/#text"
			set := distinct[path]
			if set == nil {
				set = map[string]struct{}{}
				distinct[path] = set
			}
			set[t.S] = struct{}{}
		} else {
			path = prefix + "/" + t.S
		}
		stack = append(stack, frame{i, path})
	}
	for _, f := range stack {
		pop(f, len(rel.Tuples))
	}
	for path, set := range distinct {
		ps := s[path]
		ps.distinct = int64(len(set))
		s[path] = ps
	}
	return s
}

// TestCollectMatchesStringPaths checks the class annotations of Collect
// against the string-path oracle on random forests, on an XMark
// document, and on relations whose keys grew to several digits through
// random updates — and, after every one of those updates, those of the
// index the updates spliced (index.Splice), so a derivation shared by
// Build and Splice cannot hide a wrong annotation.
func TestCollectMatchesStringPaths(t *testing.T) {
	check := func(what string, rel *interval.Relation) {
		t.Helper()
		same(t, what, annotations(Collect(rel)), collectByString(rel))
	}
	check("empty", &interval.Relation{})
	check("xmark", interval.Encode(xmark.Generate(xmark.Config{ScaleFactor: 0.002, Seed: 3})))
	rng := rand.New(rand.NewSource(27))
	for i := 0; i < 200; i++ {
		check(fmt.Sprintf("forest %d", i), interval.Encode(xmltree.RandomForest(rng, 60)))
	}
	for i := 0; i < 20; i++ {
		rel := interval.Encode(xmltree.RandomForest(rng, 30))
		ix := index.Build(rel)
		for u := 0; u < 15 && rel.Len() > 0; u++ {
			target, end := rng.Intn(rel.Len()), ix.End
			frag := xmltree.RandomForest(rng, 5)
			var e interval.Edit
			var err error
			switch rng.Intn(5) {
			case 0:
				rel, e, err = update.InsertAfter(rel, end, target, frag)
			case 1:
				rel, e, err = update.InsertBefore(rel, end, target, frag)
			case 2:
				rel, e, err = update.AppendChild(rel, end, target, frag)
			case 3:
				rel, e, err = update.PrependChild(rel, end, target, frag)
			default:
				if target > 0 {
					rel, e, err = update.DeleteSubtree(rel, end, target)
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			ix = index.Splice(ix, rel, e)
			same(t, fmt.Sprintf("relation %d spliced by update %d", i, u), annotations(ix), collectByString(rel))
		}
		if rel.MaxKeyLen() < 2 {
			t.Fatalf("updated relation %d kept one-digit keys", i)
		}
		check(fmt.Sprintf("updated relation %d", i), rel)
	}
}

// same fails unless got equals want exactly, naming the first differing
// path.
func same(t *testing.T, what string, got, want map[string]annotation) {
	t.Helper()
	if reflect.DeepEqual(got, want) {
		return
	}
	for _, p := range sortedPaths(want) {
		if got[p] != want[p] {
			t.Fatalf("%s: path %s %+v, want %+v", what, p, got[p], want[p])
		}
	}
	t.Fatalf("%s: %d annotated paths, want %d", what, len(got), len(want))
}

// BenchmarkCollect derives the statistics of the XMark sf 0.1 document
// (143k tuples) as a catalog add does: the index build that annotates the
// dataguide.
func BenchmarkCollect(b *testing.B) {
	rel := interval.Encode(xmark.Generate(xmark.Config{ScaleFactor: 0.1, Seed: 1}))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Collect(rel)
	}
}

package index

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"dixq/internal/interval"
	"dixq/internal/xmltree"
)

// forestPaths recomputes the strong-dataguide extent straight from the
// tree form: every distinct root-to-node class path, text nodes rendered
// "#text", sorted. This is the specification Paths() must match.
func forestPaths(f xmltree.Forest) []string {
	seen := map[string]bool{}
	var walk func(n *xmltree.Node, prefix string)
	walk = func(n *xmltree.Node, prefix string) {
		label := n.Label
		if xmltree.LabelKind(label) == xmltree.Text {
			label = "#text"
		}
		p := prefix + "/" + label
		seen[p] = true
		for _, c := range n.Children {
			walk(c, p)
		}
	}
	for _, n := range f {
		walk(n, "")
	}
	out := make([]string, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// TestDataguidePathsProperty is the dataguide correctness property: over
// random forests, the trie's path extent is exactly the set of distinct
// root-to-node paths of the forest — no path missing, none invented.
func TestDataguidePathsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20030609))
	for i := 0; i < 300; i++ {
		f := xmltree.RandomForest(rng, 60)
		ix := Build(interval.Encode(f))
		got, want := ix.Paths(), forestPaths(f)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("forest %d %s:\ndataguide paths %q\nforest paths    %q", i, f, got, want)
		}
	}
}

// TestEndRangesProperty checks the subtree ranges: End[i] must be the first
// row after i that is not a descendant of i (the relation is L-sorted, so
// descendants are contiguous).
func TestEndRangesProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		f := xmltree.RandomForest(rng, 50)
		rel := interval.Encode(f)
		ix := Build(rel)
		n := len(rel.Tuples)
		for r := 0; r < n; r++ {
			want := n
			for j := r + 1; j < n; j++ {
				if interval.Compare(rel.Tuples[j].L, rel.Tuples[r].R) > 0 {
					want = j
					break
				}
			}
			if int(ix.End[r]) != want {
				t.Fatalf("forest %d row %d: End %d, want %d", i, r, ix.End[r], want)
			}
		}
	}
}

// figure1ish is a small document with known structure for direct Resolve
// assertions: rows are 0:<site> 1:<people> 2:<person> 3:@id 4:"p0"
// 5:"T" 6:<person> 7:@id 8:"p1".
const resolveDoc = `<site><people><person id="p0">T</person><person id="p1"/></people></site>`

func resolveIndex(t *testing.T) *DocIndex {
	t.Helper()
	f, err := xmltree.Parse(resolveDoc)
	if err != nil {
		t.Fatal(err)
	}
	return Build(interval.Encode(f))
}

func TestResolveChains(t *testing.T) {
	ix := resolveIndex(t)
	sel := func(l string) Step { return Step{Kind: StepSelect, Label: l} }
	cases := []struct {
		name   string
		steps  []Step
		want   Resolution
		pruned bool
	}{
		{"whole-doc", nil, Resolution{Ranges: [][2]int32{{0, 9}}, Rows: 9}, false},
		{"site-people-person",
			[]Step{sel("<site>"), {Kind: StepChildren}, sel("<people>"), {Kind: StepChildren}, sel("<person>")},
			Resolution{Ranges: [][2]int32{{2, 9}}, Rows: 7, Consumed: 5}, false},
		{"person-attrs",
			[]Step{sel("<site>"), {Kind: StepChildren}, sel("<people>"), {Kind: StepChildren}, sel("<person>"), {Kind: StepChildren}, sel("@id")},
			Resolution{Ranges: [][2]int32{{3, 5}, {7, 9}}, Rows: 4, Consumed: 7}, false},
		{"person-text",
			[]Step{sel("<site>"), {Kind: StepChildren}, sel("<people>"), {Kind: StepChildren}, sel("<person>"), {Kind: StepChildren}, {Kind: StepSelText}},
			Resolution{Ranges: [][2]int32{{5, 6}}, Rows: 1, Consumed: 7}, false},
		{"roots-strips-subtrees",
			[]Step{sel("<site>"), {Kind: StepChildren}, sel("<people>"), {Kind: StepRoots}},
			Resolution{Ranges: [][2]int32{{1, 2}}, Rows: 1, Consumed: 4}, false},
		{"absent-label", []Step{sel("<nosuch>")}, Resolution{}, true},
		{"children-after-roots",
			[]Step{sel("<site>"), {Kind: StepRoots}, {Kind: StepChildren}},
			Resolution{}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := ix.Resolve(c.steps)
			if c.pruned {
				if !got.Pruned {
					t.Fatalf("Resolve(%v) = %+v, want pruned", c.steps, got)
				}
				return
			}
			if got.Pruned || !reflect.DeepEqual(got.Ranges, c.want.Ranges) ||
				got.Rows != c.want.Rows || got.Consumed != c.want.Consumed {
				t.Fatalf("Resolve(%v) = %+v, want %+v", c.steps, got, c.want)
			}
		})
	}
}

// TestResolveStopsAtTextShapedSelect pins the soundness guard: a select
// whose label is text-shaped (raw character data can look like anything)
// must not be absorbed, because the "" class cannot match by content.
func TestResolveStopsAtTextShapedSelect(t *testing.T) {
	ix := resolveIndex(t)
	res := ix.Resolve([]Step{{Kind: StepSelect, Label: "T"}})
	if res.Consumed != 0 {
		t.Fatalf("text-shaped select was absorbed: %+v", res)
	}
	if res.Pruned {
		t.Fatalf("text-shaped select pruned the chain: %+v", res)
	}
}

func TestBuildSet(t *testing.T) {
	f, err := xmltree.Parse(resolveDoc)
	if err != nil {
		t.Fatal(err)
	}
	cat := map[string]*interval.Relation{"a": interval.Encode(f), "b": interval.Encode(f)}
	s := BuildSet(cat)
	for name, rel := range cat {
		if s.Docs[name] == nil || s.Docs[name].Rel != rel {
			t.Fatalf("doc %q: index missing or not built over the catalog relation", name)
		}
	}
}

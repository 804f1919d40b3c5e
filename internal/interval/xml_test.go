package interval

import (
	"math/rand"
	"testing"

	"dixq/internal/xmltree"
)

// checkWriter asserts that the relation-side readers — WriteXML, Shape,
// Len — agree with the decoded forest's serializer and shape.
func checkWriter(t *testing.T, what string, rel *Relation) {
	t.Helper()
	f, err := Decode(rel)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if got, want := XML(rel), f.String(); got != want {
		t.Fatalf("%s: WriteXML\n got %q\nwant %q", what, got, want)
	}
	if trees, depth := rel.Shape(); trees != len(f) || depth != height(f) || rel.Len() != f.Size() {
		t.Fatalf("%s: trees/depth/len = %d/%d/%d, forest has %d/%d/%d",
			what, trees, depth, rel.Len(), len(f), height(f), f.Size())
	}
}

// height is the tallest tree's height, by recursion over the forest: 1 for
// a leaf, 0 for the empty forest.
func height(f xmltree.Forest) int {
	h := 0
	for _, n := range f {
		h = max(h, 1+height(n.Children))
	}
	return h
}

// regrow rewrites every one-digit key d as the key (d/2, 5) for odd d and
// (d/2) for even d: document order is kept, but the keys now have one or
// two digits, as keys grown by updates do.
func regrow(rel *Relation) *Relation {
	key := func(k Key) Key {
		if d := k[0]; d%2 == 1 {
			return Key{d / 2, 5}
		} else {
			return Key{d / 2}
		}
	}
	out := &Relation{Tuples: make([]Tuple, len(rel.Tuples))}
	for i, t := range rel.Tuples {
		out.Tuples[i] = Tuple{S: t.S, L: key(t.L), R: key(t.R)}
	}
	return out
}

// TestWriteXMLMatchesDecodeString is the property the relation-only
// result path rests on: for every encoding the writer's bytes are those of
// the decoded forest's String, and the shape readers match the forest —
// on random forests, with multi-digit keys, and with tuples out of order.
func TestWriteXMLMatchesDecodeString(t *testing.T) {
	rng := rand.New(rand.NewSource(2003))
	for i := 0; i < 500; i++ {
		rel := Encode(xmltree.RandomForest(rng, 40))
		checkWriter(t, "random", rel)
		checkWriter(t, "multi-digit", regrow(rel))
		shuffled := rel.Clone()
		rng.Shuffle(len(shuffled.Tuples), func(a, b int) {
			shuffled.Tuples[a], shuffled.Tuples[b] = shuffled.Tuples[b], shuffled.Tuples[a]
		})
		checkWriter(t, "shuffled", shuffled)
	}
}

// TestWriteXMLHandCases pins the serializer's corners one by one.
func TestWriteXMLHandCases(t *testing.T) {
	el, attr, text := xmltree.NewElement, xmltree.NewAttribute, xmltree.NewText
	cases := []struct {
		name string
		f    xmltree.Forest
		want string
	}{
		{"empty forest", nil, ""},
		{"empty element", xmltree.Forest{el("e")}, `<e/>`},
		{"attributes only", xmltree.Forest{el("e", attr("a", "1"), attr("b", ""))}, `<e a="1" b=""/>`},
		{"non-leading attributes", xmltree.Forest{el("e", attr("a", "1"), text("x"), attr("b", "2"), el("c"))},
			`<e a="1">xb="2"<c/></e>`},
		{"top-level attribute and text", xmltree.Forest{attr("a", "v"), text("t"), el("e")}, `a="v"t<e/>`},
		{"multi-text attribute value", xmltree.Forest{el("e", &xmltree.Node{Label: "@a", Children: xmltree.Forest{
			text("p"), el("q", text("r"), attr("s", "u")), text("v")}})}, `<e a="pruv"/>`},
		{"text descendants not rendered", xmltree.Forest{el("e", &xmltree.Node{Label: "t",
			Children: xmltree.Forest{text("hidden")}}, text("u"))}, `<e>tu</e>`},
		{"escaping", xmltree.Forest{el("e", attr("a", `1&2<3>"4`), text(`x&y<z>"w`))},
			`<e a="1&amp;2&lt;3>&quot;4">x&amp;y&lt;z&gt;"w</e>`},
		{"nesting", xmltree.Forest{el("a", el("b", el("c", text("1"))), el("d")), el("e")},
			`<a><b><c>1</c></b><d/></a><e/>`},
	}
	for _, c := range cases {
		rel := Encode(c.f)
		if got := XML(rel); got != c.want {
			t.Errorf("%s: got %q, want %q", c.name, got, c.want)
		}
		checkWriter(t, c.name, rel)
		checkWriter(t, c.name+", multi-digit", regrow(rel))
	}
}

package xmltree

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestKind(t *testing.T) {
	tests := []struct {
		node *Node
		want Kind
		name string
	}{
		{NewElement("person"), Element, "person"},
		{NewAttribute("id", "person0"), Attribute, "id"},
		{NewText("hello"), Text, ""},
		{NewText("<"), Text, ""}, // bare '<' is not an element label
		{NewText("@"), Text, ""}, // '@' alone is still an attribute label prefix
		{NewText("not<a>tag"), Text, ""},
	}
	for _, tt := range tests {
		if got := tt.node.Kind(); got != tt.want && tt.node.Label != "@" {
			t.Errorf("Kind(%q) = %v, want %v", tt.node.Label, got, tt.want)
		}
		if tt.node.Kind() == tt.want {
			if got := tt.node.Name(); got != tt.name {
				t.Errorf("Name(%q) = %q, want %q", tt.node.Label, got, tt.name)
			}
		}
	}
}

func TestKindString(t *testing.T) {
	if Element.String() != "element" || Attribute.String() != "attribute" || Text.String() != "text" {
		t.Errorf("Kind.String() mismatch: %v %v %v", Element, Attribute, Text)
	}
	if Kind(42).String() != "invalid" {
		t.Errorf("Kind(42).String() = %q", Kind(42).String())
	}
}

func TestSizeDepth(t *testing.T) {
	f := Forest{
		NewElement("a",
			NewAttribute("x", "1"),
			NewElement("b", NewText("t")),
		),
		NewText("u"),
	}
	// a, @x, "1", b, "t", "u" = 6 nodes.
	if got := f.Size(); got != 6 {
		t.Errorf("Size = %d, want 6", got)
	}
	// The depth is read off the preorder walk: a leaf root has depth 0.
	var depths []int
	f.Preorder()(func(depth int, _ string) { depths = append(depths, depth) })
	if want := []int{0, 1, 2, 1, 2, 0}; !reflect.DeepEqual(depths, want) {
		t.Errorf("preorder depths = %v, want %v", depths, want)
	}
	Forest{}.Preorder()(func(int, string) { t.Error("empty forest visited a node") })
}

func TestCopyIsDeep(t *testing.T) {
	orig := Forest{NewElement("a", NewText("x"))}
	cp := orig.Copy()
	cp[0].Children[0].Label = "y"
	if orig[0].Children[0].Label != "x" {
		t.Fatal("Copy shares child nodes with the original")
	}
	if !orig.Equal(Forest{NewElement("a", NewText("x"))}) {
		t.Fatal("original mutated")
	}
	if (Forest)(nil).Copy() != nil {
		t.Fatal("Copy(nil) should be nil")
	}
}

func TestConcat(t *testing.T) {
	a := Forest{NewText("1")}
	b := Forest{NewText("2")}
	ab := a.Concat(b)
	if len(ab) != 2 || ab[0].Label != "1" || ab[1].Label != "2" {
		t.Fatalf("Concat = %v", ab)
	}
	if got := (Forest{}).Concat(b); !got.Equal(b) {
		t.Errorf("[]@b = %v, want b", got)
	}
	if got := a.Concat(nil); !got.Equal(a) {
		t.Errorf("a@[] = %v, want a", got)
	}
}

func TestTextValue(t *testing.T) {
	f := Forest{
		NewElement("name", NewText("Jaak"), NewElement("b", NewText(" Tempesti"))),
	}
	if got := f.TextValue(); got != "Jaak Tempesti" {
		t.Errorf("TextValue = %q", got)
	}
}

func TestCompareBasics(t *testing.T) {
	a := Forest{NewElement("a")}
	ab := Forest{NewElement("a", NewElement("b"))}
	az := Forest{NewElement("a"), NewElement("z")}
	tests := []struct {
		x, y Forest
		want int
		name string
	}{
		{nil, nil, 0, "empty=empty"},
		{nil, a, -1, "empty<any"},
		{a, a, 0, "a=a"},
		{a, ab, -1, "leaf before same-labeled tree with child"},
		{az, ab, -1, "missing child beats later sibling labels"},
		{Forest{NewText("abc")}, Forest{NewText("abd")}, -1, "label order"},
	}
	for _, tt := range tests {
		if got := tt.x.Compare(tt.y); got != tt.want {
			t.Errorf("%s: Compare = %d, want %d", tt.name, got, tt.want)
		}
		if got := tt.y.Compare(tt.x); got != -tt.want {
			t.Errorf("%s: reverse Compare = %d, want %d", tt.name, got, -tt.want)
		}
	}
}

func TestCompareIsTotalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	forests := make([]Forest, 40)
	for i := range forests {
		forests[i] = RandomForest(rng, 6)
	}
	for _, x := range forests {
		if x.Compare(x) != 0 {
			t.Fatalf("Compare(x,x) != 0 for %v", x)
		}
		for _, y := range forests {
			cxy := x.Compare(y)
			if cxy != -y.Compare(x) {
				t.Fatalf("antisymmetry violated for %v vs %v", x, y)
			}
			if cxy == 0 && !x.Equal(y) {
				t.Fatalf("Compare==0 but Equal false")
			}
			for _, z := range forests {
				if cxy <= 0 && y.Compare(z) <= 0 && x.Compare(z) > 0 {
					t.Fatalf("transitivity violated")
				}
			}
		}
	}
}

func TestEqualQuick(t *testing.T) {
	// A forest is always equal to its deep copy, and concatenation with the
	// empty forest is the identity.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := RandomForest(rng, 8)
		return x.Equal(x.Copy()) && x.Concat(nil).Equal(x) && (Forest)(nil).Concat(x).Equal(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConcatAssociativeQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b, c := RandomForest(rng, 5), RandomForest(rng, 5), RandomForest(rng, 5)
		return a.Concat(b).Concat(c).Equal(a.Concat(b.Concat(c)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

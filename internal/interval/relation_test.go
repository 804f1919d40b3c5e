package interval

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"dixq/internal/xmltree"
)

const figure1 = `<site>
 <people>
  <person id="person0">
   <name>Jaak Tempesti</name>
   <emailaddress>mailto:Tempesti@labs.com</emailaddress>
   <phone>+0 (873) 14873867</phone>
   <homepage>http://www.labs.com/~Tempesti</homepage>
  </person>
  <person id="person1">
   <name>Cong Rosca</name>
   <emailaddress>mailto:Rosca@washington.edu</emailaddress>
   <phone>+0 (64) 27711230</phone>
   <homepage>http://www.washington.edu/~Rosca</homepage>
  </person>
 </people>
 <closed_auctions>
  <closed_auction>
   <seller person="person0" />
   <buyer person="person1" />
   <itemref item="item1" />
   <price>42.12</price>
   <date>08/22/1999</date>
   <quantity>1</quantity>
   <type>Regular</type>
  </closed_auction>
 </closed_auctions>
</site>`

func parseFigure1(t *testing.T) xmltree.Forest {
	t.Helper()
	f, err := xmltree.Parse(figure1)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestEncodeFigure4 pins the exact values the paper shows in Figure 4 for
// the depth-first counter encoding of the Figure 1 document.
func TestEncodeFigure4(t *testing.T) {
	rel := Encode(parseFigure1(t))
	want := []struct {
		s    string
		l, r int64
	}{
		{"<site>", 0, 85},
		{"<people>", 1, 46},
		{"<person>", 2, 23},
		{"@id", 3, 6},
		{"person0", 4, 5},
		{"<name>", 7, 10},
		{"Jaak Tempesti", 8, 9},
	}
	for i, w := range want {
		got := rel.Tuples[i]
		if got.S != w.s || !got.L.Equal(Key{w.l}) || !got.R.Equal(Key{w.r}) {
			t.Errorf("tuple %d = %s, want (%q, %d, %d)", i, got, w.s, w.l, w.r)
		}
	}
	if got := rel.Width(); got != 86 {
		t.Errorf("Width = %d, want 86 (as in Example 3.2)", got)
	}
	if rel.Len() != 43 {
		t.Errorf("Len = %d, want 43", rel.Len())
	}
	// Figure 5 also pins the second person: <person> (24, 45).
	p1 := rel.Tuples[13]
	if p1.S != "<person>" || !p1.L.Equal(Key{24}) || !p1.R.Equal(Key{45}) {
		t.Errorf("second person = %s, want (<person>, 24, 45)", p1)
	}
}

func TestEncodeValidates(t *testing.T) {
	rel := Encode(parseFigure1(t))
	if err := Validate(rel); err != nil {
		t.Fatalf("Validate(Encode(fig1)): %v", err)
	}
	if !rel.IsSorted() {
		t.Fatal("Encode output not sorted by L")
	}
}

func TestDecodeRoundTrip(t *testing.T) {
	f := parseFigure1(t)
	got, err := Decode(Encode(f))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(f) {
		t.Fatalf("round trip mismatch:\n got %s\nwant %s", got.String(), f.String())
	}
}

func TestDecodeUnsortedInput(t *testing.T) {
	f := parseFigure1(t)
	rel := Encode(f)
	// Reverse the tuples; Decode must still work.
	for i, j := 0, len(rel.Tuples)-1; i < j; i, j = i+1, j-1 {
		rel.Tuples[i], rel.Tuples[j] = rel.Tuples[j], rel.Tuples[i]
	}
	got, err := Decode(rel)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(f) {
		t.Fatal("decode of shuffled relation mismatch")
	}
}

func TestRoundTripQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		forest := xmltree.RandomForest(rng, 15)
		got, err := Decode(Encode(forest))
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return got.Equal(forest)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestEncodingWithGapsDecodes checks that Decode only relies on the order
// relationships of Definition 3.1, not on tight or contiguous values: any
// order-preserving stretching of the endpoints decodes to the same forest.
func TestEncodingWithGapsDecodes(t *testing.T) {
	f := parseFigure1(t)
	rel := Encode(f)
	stretched := &Relation{}
	for _, tp := range rel.Tuples {
		stretched.Tuples = append(stretched.Tuples, Tuple{
			S: tp.S,
			L: Key{tp.L[0]*7 + 3},
			R: Key{tp.R[0]*7 + 3},
		})
	}
	if err := Validate(stretched); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(stretched)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(f) {
		t.Fatal("stretched encoding decodes differently")
	}
}

func TestMultiDigitEncodingDecodes(t *testing.T) {
	// Two trees in different environments, expressed with 2-digit keys:
	// env 0 holds <a>text</a>, env 3 holds <b/>.
	rel := &Relation{Tuples: []Tuple{
		{S: "<a>", L: Key{0, 0}, R: Key{0, 3}},
		{S: "t", L: Key{0, 1}, R: Key{0, 2}},
		{S: "<b>", L: Key{3, 0}, R: Key{3, 1}},
	}}
	got, err := Decode(rel)
	if err != nil {
		t.Fatal(err)
	}
	want := xmltree.Forest{
		xmltree.NewElement("a", xmltree.NewText("t")),
		xmltree.NewElement("b"),
	}
	if !got.Equal(want) {
		t.Fatalf("got %s, want %s", got.String(), want.String())
	}
}

func TestValidateRejectsBadEncodings(t *testing.T) {
	bad := []struct {
		name string
		rel  *Relation
	}{
		{"l >= r", &Relation{Tuples: []Tuple{{S: "a", L: Key{2}, R: Key{2}}}}},
		{"partial overlap", &Relation{Tuples: []Tuple{
			{S: "a", L: Key{0}, R: Key{4}},
			{S: "b", L: Key{2}, R: Key{6}},
		}}},
		{"shared endpoint l=r", &Relation{Tuples: []Tuple{
			{S: "a", L: Key{0}, R: Key{2}},
			{S: "b", L: Key{2}, R: Key{4}},
		}}},
		{"shared r", &Relation{Tuples: []Tuple{
			{S: "a", L: Key{0}, R: Key{4}},
			{S: "b", L: Key{1}, R: Key{4}},
		}}},
		{"duplicate l", &Relation{Tuples: []Tuple{
			{S: "a", L: Key{0}, R: Key{4}},
			{S: "b", L: Key{0}, R: Key{2}},
		}}},
	}
	for _, tt := range bad {
		if err := Validate(tt.rel); err == nil {
			t.Errorf("%s: Validate accepted invalid encoding", tt.name)
		}
	}
	if _, err := Decode(bad[1].rel); err == nil {
		t.Error("Decode accepted invalid encoding")
	}
}

func TestRelationHelpers(t *testing.T) {
	rel := &Relation{Tuples: []Tuple{
		{S: "b", L: Key{3}, R: Key{4}},
		{S: "a", L: Key{0}, R: Key{1}},
	}}
	if rel.IsSorted() {
		t.Error("IsSorted on unsorted relation")
	}
	clone := rel.Clone()
	rel.Sort()
	if !rel.IsSorted() || rel.Tuples[0].S != "a" {
		t.Errorf("Sort failed: %v", rel.Tuples)
	}
	if clone.Tuples[0].S != "b" {
		t.Error("Clone shares tuple storage with original")
	}
	if !strings.HasPrefix(rel.String(), "a ") {
		t.Errorf("String = %q", rel.String())
	}
	if (&Relation{}).Width() != 0 {
		t.Error("empty Width != 0")
	}
	if MustDecode(rel) == nil {
		t.Error("MustDecode returned nil forest")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustDecode should panic on invalid input")
		}
	}()
	MustDecode(&Relation{Tuples: []Tuple{{S: "x", L: Key{1}, R: Key{1}}}})
}

// TestEncodeXMLMatchesParseEncode: the direct shredder must produce the
// identical relation to Parse followed by Encode, on the worked example
// and on random documents.
func TestEncodeXMLMatchesParseEncode(t *testing.T) {
	check := func(src string) {
		t.Helper()
		direct, err := EncodeXML(src)
		if err != nil {
			t.Fatalf("EncodeXML: %v", err)
		}
		forest, err := xmltree.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		via := Encode(forest)
		if len(direct.Tuples) != len(via.Tuples) {
			t.Fatalf("tuple counts differ: %d vs %d", len(direct.Tuples), len(via.Tuples))
		}
		if n := tupleBound(src); n < len(direct.Tuples) {
			t.Fatalf("tupleBound %d < %d tuples of %q", n, len(direct.Tuples), src)
		}
		for i := range via.Tuples {
			a, b := direct.Tuples[i], via.Tuples[i]
			if a.S != b.S || !a.L.Equal(b.L) || !a.R.Equal(b.R) {
				t.Fatalf("tuple %d: %s vs %s", i, a, b)
			}
		}
	}
	check(figure1)
	check(`<a x="1" y=""><b/>text<![CDATA[raw]]></a>`)
	check(`plain text only`)
	check("<?xml version=\"1.0\"?>\n<!-- c > d -->\n<a>\n  <b k='v'>x &amp; y</b>\n  <![CDATA[<raw>]]>tail<!--x-->more\n</a>\n")

	cfg := &quick.Config{MaxCount: 200}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		forest := xmltree.RandomForest(rng, 12)
		src := forest.String()
		direct, err := EncodeXML(src)
		if err != nil {
			return true // inputs with exotic text need not be parseable
		}
		parsed, err := xmltree.Parse(src)
		if err != nil {
			return false
		}
		via := Encode(parsed)
		if len(direct.Tuples) != len(via.Tuples) || tupleBound(src) < len(direct.Tuples) {
			return false
		}
		for i := range via.Tuples {
			a, b := direct.Tuples[i], via.Tuples[i]
			if a.S != b.S || !a.L.Equal(b.L) || !a.R.Equal(b.R) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestEncodeXMLError(t *testing.T) {
	if _, err := EncodeXML(`<a>`); err == nil {
		t.Error("bad XML should fail")
	}
}

// freshMaxKeyLen scans rel's tuples through a relation that has no memo.
func freshMaxKeyLen(rel *Relation) int { return (&Relation{Tuples: rel.Tuples}).MaxKeyLen() }

// TestMaxKeyLenMemo checks the memoized width against a fresh scan for
// the relations this package produces — Encode and EncodeXML (one digit,
// zero when empty) and multi-digit relations, before and after an
// in-place sort — and that repeated reads return the memo.
func TestMaxKeyLenMemo(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	check := func(what string, rel *Relation) {
		t.Helper()
		want := freshMaxKeyLen(rel)
		for i := 0; i < 2; i++ {
			if got := rel.MaxKeyLen(); got != want {
				t.Fatalf("%s: read %d MaxKeyLen %d, fresh scan %d", what, i, got, want)
			}
		}
	}
	check("empty", &Relation{})
	shredded, err := EncodeXML(figure1)
	if err != nil {
		t.Fatal(err)
	}
	check("EncodeXML", shredded)
	for i := 0; i < 50; i++ {
		check("Encode", Encode(xmltree.RandomForest(rng, 40)))
		multi := randomRelation(rng, 30, 6)
		check("multi-digit", multi)
		multi.Sort()
		check("sorted multi-digit", multi)
	}
}

// TestMaxKeyLenConcurrentReaders reads one shared relation's width from 8
// goroutines at once, as concurrent queries over a catalog document do;
// under -race the memo must publish without a data race.
func TestMaxKeyLenConcurrentReaders(t *testing.T) {
	rel := randomRelation(rand.New(rand.NewSource(5)), 5000, 4)
	want := freshMaxKeyLen(rel)
	got := make([]int, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				got[g] = rel.MaxKeyLen()
			}
		}()
	}
	wg.Wait()
	for g, w := range got {
		if w != want {
			t.Fatalf("goroutine %d read %d, want %d", g, w, want)
		}
	}
}

// BenchmarkMaxKeyLen reads the width of a 143k-tuple relation (the XMark
// sf 0.1 document's size): "first" is the one scan a relation pays,
// "memoized" every read after it, which is O(1).
func BenchmarkMaxKeyLen(b *testing.B) {
	tuples := randomRelation(rand.New(rand.NewSource(1)), 143_000, 3).Tuples
	b.Run("first", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			(&Relation{Tuples: tuples}).MaxKeyLen()
		}
	})
	b.Run("memoized", func(b *testing.B) {
		rel := &Relation{Tuples: tuples}
		rel.MaxKeyLen()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rel.MaxKeyLen()
		}
	})
}

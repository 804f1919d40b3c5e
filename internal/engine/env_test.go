package engine

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dixq/internal/interval"
	"dixq/internal/xmark"
	"dixq/internal/xmltree"
)

// TestFigure5And7 reproduces the worked example of the paper: the path
// /site/people/person over the Figure 1 document (Figure 5), then the
// for-loop entry producing I' and T'_p (Example 4.3 / Figure 7). The
// paper's scalar values are i·86 + l; our digit-vector keys carry the same
// two coordinates unmultiplied, e.g. 174 = 2·86 + 2 is Key{2, 2}.
func TestFigure5And7(t *testing.T) {
	doc := interval.Encode(xmark.Figure1Forest())

	// document("auction.xml")/site/people/person
	site := SelectLabel("<site>", doc)
	people := SelectLabel("<people>", Children(site))
	person := SelectLabel("<person>", Children(people))

	// Figure 5: T_person holds both person subtrees with their original
	// intervals: (2, 23) and (24, 45).
	if n := person.Len(); n != 22 {
		t.Fatalf("T_person has %d tuples, want 22", n)
	}
	first := person.Tuples[0]
	if first.S != "<person>" || !first.L.Equal(interval.Key{2}) || !first.R.Equal(interval.Key{23}) {
		t.Errorf("first person = %s, want (<person>, 2, 23)", first)
	}

	// Example 4.3: the for-loop entry.
	roots := Roots(person)
	index := EnterIndex(roots)
	if len(index) != 2 || !index[0].Equal(interval.Key{2}) || !index[1].Equal(interval.Key{24}) {
		t.Fatalf("I' = %v, want [2 24]", index)
	}
	tp := BindVar(person, roots, 0, 1)
	// Figure 7: person0's tuple (2, 23) becomes l' = 174 = 2·86 + 2, i.e.
	// Key{2, 2} .. Key{2, 23}; person1's (24, 45) becomes 2088 = 24·86 +
	// 24, i.e. Key{24, 24} .. Key{24, 45}.
	if got := tp.Tuples[0]; !got.L.Equal(interval.Key{2, 2}) || !got.R.Equal(interval.Key{2, 23}) {
		t.Errorf("T'_p person0 = %s, want (2.2, 2.23)", got)
	}
	var p1 interval.Tuple
	for _, tup := range tp.Tuples {
		if tup.S == "<person>" && tup.L.Digit(0) == 24 {
			p1 = tup
		}
	}
	if !p1.L.Equal(interval.Key{24, 24}) || !p1.R.Equal(interval.Key{24, 45}) {
		t.Errorf("T'_p person1 = %s, want (24.24, 24.45)", p1)
	}
	if !tp.IsSorted() {
		t.Error("T'_p not sorted")
	}

	// Each environment holds exactly one person tree.
	for i, env := range index {
		g := GroupByEnv(index, 1, tp)[i]
		f, err := interval.Decode(&interval.Relation{Tuples: append([]interval.Tuple(nil), g...)})
		if err != nil {
			t.Fatalf("env %s: %v", env, err)
		}
		if len(f) != 1 || f[0].Label != "<person>" {
			t.Errorf("env %s binds %s", env, f.String())
		}
	}
}

func TestBindVarRoundTrip(t *testing.T) {
	// For any forest, entering a for loop binds each tree to one
	// environment, in order.
	cfg := &quick.Config{MaxCount: 200}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		forest := xmltree.RandomForest(rng, 10)
		rel := interval.Encode(forest)
		roots := Roots(rel)
		index := EnterIndex(roots)
		if len(index) != len(forest) {
			return false
		}
		bound := BindVar(rel, roots, 0, 1)
		groups := GroupByEnv(index, 1, bound)
		for i, g := range groups {
			got, err := interval.Decode(&interval.Relation{Tuples: append([]interval.Tuple(nil), g...)})
			if err != nil || len(got) != 1 {
				return false
			}
			if !got.Equal(xmltree.Forest{forest[i]}) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestEmbedOuter(t *testing.T) {
	// Outer env 0 holds forest A; entering a loop over a 3-tree domain in
	// env 0 must replicate A into all three new environments.
	a, _ := xmltree.Parse(`<a>x</a>`)
	dom := xmltree.Forest{xmltree.NewElement("d1"), xmltree.NewElement("d2"), xmltree.NewElement("d3")}
	relA := interval.Encode(a)
	relDom := interval.Encode(dom)
	roots := Roots(relDom)
	newIndex := EnterIndex(roots)
	embedded, err := EmbedOuter(newIndex, 0, 1, relA, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := embedded.Len(); got != 3*relA.Len() {
		t.Fatalf("embedded %d tuples, want %d", got, 3*relA.Len())
	}
	groups := GroupByEnv(newIndex, 1, embedded)
	for i, g := range groups {
		f, err := interval.Decode(&interval.Relation{Tuples: append([]interval.Tuple(nil), g...)})
		if err != nil {
			t.Fatalf("env %d: %v", i, err)
		}
		if !f.Equal(a) {
			t.Errorf("env %d = %s, want %s", i, f.String(), a.String())
		}
	}
	if !embedded.IsSorted() {
		t.Error("EmbedOuter output not sorted")
	}
}

func TestEmbedOuterSkipsEmptyDomains(t *testing.T) {
	// Two outer environments; the domain is empty in env 0, so only env
	// 1's new environments receive copies.
	outerForests := []xmltree.Forest{
		{xmltree.NewText("v0")},
		{xmltree.NewText("v1")},
	}
	domForests := []xmltree.Forest{
		nil,
		{xmltree.NewElement("d")},
	}
	index, outer := encodeInEnvs(outerForests)
	_, dom := encodeInEnvs(domForests)
	_ = index
	roots := Roots(dom)
	newIndex := EnterIndex(roots)
	if len(newIndex) != 1 {
		t.Fatalf("newIndex = %v", newIndex)
	}
	embedded, err := EmbedOuter(newIndex, 1, 2, outer, nil)
	if err != nil {
		t.Fatal(err)
	}
	if embedded.Len() != 1 || embedded.Tuples[0].S != "v1" {
		t.Fatalf("embedded = %v", embedded.Tuples)
	}
}

func TestFilterIndexAndSemiJoin(t *testing.T) {
	forests := []xmltree.Forest{
		{xmltree.NewText("a")},
		{xmltree.NewText("b")},
		{xmltree.NewText("c")},
	}
	index, rel := encodeInEnvs(forests)
	filtered := FilterIndex(index, []bool{true, false, true})
	if len(filtered) != 2 || filtered[1].Digit(0) != 2 {
		t.Fatalf("FilterIndex = %v", filtered)
	}
	kept := SemiJoin(rel, filtered, 1)
	if kept.Len() != 2 || kept.Tuples[0].S != "a" || kept.Tuples[1].S != "c" {
		t.Fatalf("SemiJoin = %v", kept.Tuples)
	}
	if got := SemiJoin(rel, Index{}, 1); got.Len() != 0 {
		t.Errorf("SemiJoin with empty index = %v", got.Tuples)
	}
}

// TestSemiJoinKeepingEveryEnvAllocatesNoTuples pins the view: a where
// clause that keeps every environment filters the index to itself and
// semi-joins each binding to one run of its rows, so neither allocates
// tuple storage — at most the relation header and the run list.
func TestSemiJoinKeepingEveryEnvAllocatesNoTuples(t *testing.T) {
	var forests []xmltree.Forest
	keep := make([]bool, 64)
	for i := range keep {
		forests = append(forests, xmltree.Forest{xmltree.NewElement("e"), xmltree.NewText("v")})
		keep[i] = true
	}
	index, rel := encodeInEnvs(forests)
	if allocs := testing.AllocsPerRun(100, func() { FilterIndex(index, keep) }); allocs != 0 {
		t.Errorf("FilterIndex keeping every entry: %.0f allocs, want 0", allocs)
	}
	if got := FilterIndex(index, keep); &got[0] != &index[0] {
		t.Error("FilterIndex keeping every entry copied the index")
	}
	var kept *interval.Relation
	if allocs := testing.AllocsPerRun(100, func() { kept = SemiJoin(rel, index, 1) }); allocs > 2 {
		t.Errorf("SemiJoin keeping every environment: %.0f allocs, want at most 2", allocs)
	}
	if kept.Len() != rel.Len() || &kept.Tuples[0] != &rel.Tuples[0] {
		t.Error("SemiJoin keeping every environment is not a view of its input")
	}
}

func TestEmptyAndComparePerEnv(t *testing.T) {
	aForests := []xmltree.Forest{
		{xmltree.NewText("x")},
		nil,
		{xmltree.NewText("z")},
	}
	bForests := []xmltree.Forest{
		{xmltree.NewText("x")},
		{xmltree.NewText("y")},
		{xmltree.NewText("a")},
	}
	index, ra := encodeInEnvs(aForests)
	_, rb := encodeInEnvs(bForests)
	empty := EmptyPerEnv(index, 1, ra)
	if !equalBools(empty, []bool{false, true, false}) {
		t.Errorf("EmptyPerEnv = %v", empty)
	}
	cmp := ComparePerEnv(index, 1, ra, rb)
	if cmp[0] != 0 || cmp[1] != -1 || cmp[2] != 1 {
		t.Errorf("ComparePerEnv = %v", cmp)
	}
}

func equalBools(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestInitialIndex(t *testing.T) {
	idx := Initial()
	if len(idx) != 1 || len(idx[0]) != 0 {
		t.Errorf("Initial = %v", idx)
	}
}

func TestPositions(t *testing.T) {
	// Two environments: 3 roots and 1 root; positions restart per env.
	forests := []xmltree.Forest{
		{xmltree.NewElement("a"), xmltree.NewElement("b"), xmltree.NewElement("c")},
		{xmltree.NewElement("d")},
	}
	_, rel := encodeInEnvs(forests)
	roots := Roots(rel)
	pos := Positions(roots, 1, 2)
	want := []string{"1", "2", "3", "1"}
	if len(pos.Tuples) != len(want) {
		t.Fatalf("positions = %v", pos.Tuples)
	}
	for i, w := range want {
		if pos.Tuples[i].S != w {
			t.Errorf("position %d = %q, want %q", i, pos.Tuples[i].S, w)
		}
		if !pos.Tuples[i].L.HasPrefix(roots.Tuples[i].L) {
			t.Errorf("position %d key %s not under root %s", i, pos.Tuples[i].L, roots.Tuples[i].L)
		}
	}
	if !pos.IsSorted() {
		t.Error("positions unsorted")
	}
}

func TestContainsPerEnv(t *testing.T) {
	aForests := []xmltree.Forest{
		{xmltree.NewElement("d", xmltree.NewText("pure gold ring"))},
		{xmltree.NewText("silver")},
		nil,
	}
	bForests := []xmltree.Forest{
		{xmltree.NewText("gold")},
		{xmltree.NewText("gold")},
		nil, // empty contains empty
	}
	index, ra := encodeInEnvs(aForests)
	_, rb := encodeInEnvs(bForests)
	got := ContainsPerEnv(index, 1, ra, rb)
	want := []bool{true, false, true}
	if !equalBools(got, want) {
		t.Errorf("ContainsPerEnv = %v, want %v", got, want)
	}
}

package update

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"dixq/internal/interval"
	"dixq/internal/xmltree"
)

// locate finds the DFS-indexed node in a forest and returns its parent's
// child slice (via a setter) and position — the oracle's addressing,
// mirroring the relation's tuple order (tuples sorted by L are exactly the
// DFS preorder).
type location struct {
	siblings *xmltree.Forest
	pos      int
}

func locate(f *xmltree.Forest, dfs int) (location, bool) {
	n := 0
	var walk func(siblings *xmltree.Forest) (location, bool)
	walk = func(siblings *xmltree.Forest) (location, bool) {
		for i := range *siblings {
			if n == dfs {
				return location{siblings: siblings, pos: i}, true
			}
			n++
			if loc, ok := walk(&(*siblings)[i].Children); ok {
				return loc, true
			}
		}
		return location{}, false
	}
	return walk(f)
}

// oracle applies the forest-level equivalent of each relation update.
func oracleDelete(f xmltree.Forest, dfs int) xmltree.Forest {
	c := f.Copy()
	loc, _ := locate(&c, dfs)
	*loc.siblings = append((*loc.siblings)[:loc.pos], (*loc.siblings)[loc.pos+1:]...)
	return c
}

func oracleInsertAfter(f xmltree.Forest, dfs int, ins xmltree.Forest) xmltree.Forest {
	c := f.Copy()
	loc, _ := locate(&c, dfs)
	s := *loc.siblings
	out := make(xmltree.Forest, 0, len(s)+len(ins))
	out = append(out, s[:loc.pos+1]...)
	out = append(out, ins.Copy()...)
	out = append(out, s[loc.pos+1:]...)
	*loc.siblings = out
	return c
}

func oracleInsertBefore(f xmltree.Forest, dfs int, ins xmltree.Forest) xmltree.Forest {
	c := f.Copy()
	loc, _ := locate(&c, dfs)
	s := *loc.siblings
	out := make(xmltree.Forest, 0, len(s)+len(ins))
	out = append(out, s[:loc.pos]...)
	out = append(out, ins.Copy()...)
	out = append(out, s[loc.pos:]...)
	*loc.siblings = out
	return c
}

func oracleAppendChild(f xmltree.Forest, dfs int, ins xmltree.Forest) xmltree.Forest {
	c := f.Copy()
	loc, _ := locate(&c, dfs)
	node := (*loc.siblings)[loc.pos]
	node.Children = append(node.Children, ins.Copy()...)
	return c
}

func oraclePrependChild(f xmltree.Forest, dfs int, ins xmltree.Forest) xmltree.Forest {
	c := f.Copy()
	loc, _ := locate(&c, dfs)
	node := (*loc.siblings)[loc.pos]
	node.Children = append(ins.Copy(), node.Children...)
	return c
}

func mustDecode(t *testing.T, rel *interval.Relation) xmltree.Forest {
	t.Helper()
	if err := interval.Validate(rel); err != nil {
		t.Fatalf("update produced an invalid encoding: %v", err)
	}
	f, err := interval.Decode(rel)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestBasicOperations(t *testing.T) {
	f, _ := xmltree.Parse(`<a><b>x</b><c/></a>`)
	rel := interval.Encode(f)
	bL := rel.Tuples[1].L // <b>
	ins := xmltree.Forest{xmltree.NewElement("n", xmltree.NewText("new"))}

	after, err := InsertAfter(rel, bL, ins)
	if err != nil {
		t.Fatal(err)
	}
	if got := mustDecode(t, after).String(); got != `<a><b>x</b><n>new</n><c/></a>` {
		t.Errorf("InsertAfter = %s", got)
	}

	before, err := InsertBefore(rel, bL, ins)
	if err != nil {
		t.Fatal(err)
	}
	if got := mustDecode(t, before).String(); got != `<a><n>new</n><b>x</b><c/></a>` {
		t.Errorf("InsertBefore = %s", got)
	}

	app, err := AppendChild(rel, rel.Tuples[0].L, ins)
	if err != nil {
		t.Fatal(err)
	}
	if got := mustDecode(t, app).String(); got != `<a><b>x</b><c/><n>new</n></a>` {
		t.Errorf("AppendChild = %s", got)
	}

	pre, err := PrependChild(rel, rel.Tuples[0].L, ins)
	if err != nil {
		t.Fatal(err)
	}
	if got := mustDecode(t, pre).String(); got != `<a><n>new</n><b>x</b><c/></a>` {
		t.Errorf("PrependChild = %s", got)
	}

	del, err := DeleteSubtree(rel, bL)
	if err != nil {
		t.Fatal(err)
	}
	if got := mustDecode(t, del).String(); got != `<a><c/></a>` {
		t.Errorf("DeleteSubtree = %s", got)
	}
}

// TestLastChildInsertStaysInsideParent is the regression test for the
// boundary case where the target is its parent's last child: the parent's
// own right endpoint lies between the target and the next tuple, and the
// new siblings must stay below it.
func TestLastChildInsertStaysInsideParent(t *testing.T) {
	f, _ := xmltree.Parse(`<a><b/></a><t/>`)
	rel := interval.Encode(f)
	bL := rel.Tuples[1].L
	out, err := InsertAfter(rel, bL, xmltree.Forest{xmltree.NewElement("n")})
	if err != nil {
		t.Fatal(err)
	}
	if got := mustDecode(t, out).String(); got != `<a><b/><n/></a><t/>` {
		t.Errorf("got %s, want <a><b/><n/></a><t/>", got)
	}
	// And before a node whose preceding key is an ancestor's R.
	tL := rel.Tuples[2].L
	out2, err := InsertBefore(rel, tL, xmltree.Forest{xmltree.NewElement("m")})
	if err != nil {
		t.Fatal(err)
	}
	if got := mustDecode(t, out2).String(); got != `<a><b/></a><m/><t/>` {
		t.Errorf("got %s, want <a><b/></a><m/><t/>", got)
	}
}

func TestInsertBeforeFirstNode(t *testing.T) {
	f, _ := xmltree.Parse(`<a/>`)
	rel := interval.Encode(f)
	out, err := InsertBefore(rel, rel.Tuples[0].L, xmltree.Forest{xmltree.NewElement("z")})
	if err != nil {
		t.Fatal(err)
	}
	if got := mustDecode(t, out).String(); got != `<z/><a/>` {
		t.Errorf("got %s", got)
	}
	// Negative leading digits are legal for querying but not storable;
	// Rebuild clears them.
	rebuilt, err := Rebuild(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range rebuilt.Tuples {
		if len(tp.L) != 1 || tp.L[0] < 0 {
			t.Fatalf("Rebuild left key %s", tp.L)
		}
	}
}

func TestNotFound(t *testing.T) {
	rel := interval.Encode(xmltree.Forest{xmltree.NewElement("a")})
	missing := interval.Key{99}
	for _, err := range []error{
		errOf(DeleteSubtree(rel, missing)),
		errOf(InsertAfter(rel, missing, nil)),
		errOf(InsertBefore(rel, missing, nil)),
		errOf(AppendChild(rel, missing, nil)),
		errOf(PrependChild(rel, missing, nil)),
	} {
		if !errors.Is(err, ErrNotFound) {
			t.Errorf("err = %v, want ErrNotFound", err)
		}
	}
}

func errOf(_ *interval.Relation, err error) error { return err }

// TestRandomUpdateSequences applies random update sequences to a relation
// and to the decoded forest (the oracle); after every step the relation
// must stay a valid encoding that decodes to the oracle's forest.
func TestRandomUpdateSequences(t *testing.T) {
	cfg := &quick.Config{MaxCount: 150}
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		forest := xmltree.RandomForest(rng, 10)
		if len(forest) == 0 {
			forest = xmltree.Forest{xmltree.NewElement("seed")}
		}
		rel := interval.Encode(forest)
		for step := 0; step < 8; step++ {
			if rel.Len() == 0 {
				break
			}
			dfs := rng.Intn(rel.Len())
			target := rel.Tuples[dfs].L
			ins := xmltree.RandomForest(rng, 4)
			var err error
			switch rng.Intn(5) {
			case 0:
				forest = oracleDelete(forest, dfs)
				rel, err = DeleteSubtree(rel, target)
			case 1:
				forest = oracleInsertAfter(forest, dfs, ins)
				rel, err = InsertAfter(rel, target, ins)
			case 2:
				forest = oracleInsertBefore(forest, dfs, ins)
				rel, err = InsertBefore(rel, target, ins)
			case 3:
				forest = oracleAppendChild(forest, dfs, ins)
				rel, err = AppendChild(rel, target, ins)
			default:
				forest = oraclePrependChild(forest, dfs, ins)
				rel, err = PrependChild(rel, target, ins)
			}
			if err != nil {
				t.Logf("seed %d step %d: %v", seed, step, err)
				return false
			}
			if err := interval.Validate(rel); err != nil {
				t.Logf("seed %d step %d: invalid encoding: %v", seed, step, err)
				return false
			}
			got, err := interval.Decode(rel)
			if err != nil {
				t.Logf("seed %d step %d: %v", seed, step, err)
				return false
			}
			if !got.Equal(forest) {
				t.Logf("seed %d step %d:\n got %s\nwant %s", seed, step, got.String(), forest.String())
				return false
			}
		}
		// Rebuild compacts back to single-digit keys.
		if rel.Len() > 0 {
			compact, err := Rebuild(rel)
			if err != nil {
				return false
			}
			got, _ := interval.Decode(compact)
			if !got.Equal(forest) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, cfg); err != nil {
		t.Error(err)
	}
}

func TestUpdatedRelationIsQueryable(t *testing.T) {
	// Updates compose with the engine: insert a person, query again.
	f, _ := xmltree.Parse(`<site><people><person id="p0"><name>A</name></person></people></site>`)
	rel := interval.Encode(f)
	// people element is tuple index 1.
	peopleL := rel.Tuples[1].L
	newPerson, _ := xmltree.Parse(`<person id="p1"><name>B</name></person>`)
	rel2, err := AppendChild(rel, peopleL, newPerson)
	if err != nil {
		t.Fatal(err)
	}
	got := mustDecode(t, rel2)
	names := 0
	var walk func(xmltree.Forest)
	walk = func(fs xmltree.Forest) {
		for _, n := range fs {
			if n.Label == "<name>" {
				names++
			}
			walk(n.Children)
		}
	}
	walk(got)
	if names != 2 {
		t.Fatalf("names = %d, want 2", names)
	}
}

// TestResolvePath: child-ordinal addressing against a known shape, with
// the DFS tuple index as the oracle.
func TestResolvePath(t *testing.T) {
	f, _ := xmltree.Parse(`<a><b><c/><d/></b><e/></a><t><u/></t>`)
	rel := interval.Encode(f)
	// DFS preorder: a=0 b=1 c=2 d=3 e=4 t=5 u=6.
	cases := []struct {
		path []int
		dfs  int
	}{
		{[]int{0}, 0},       // first root <a>
		{[]int{1}, 5},       // second root <t>
		{[]int{0, 0}, 1},    // <b>
		{[]int{0, 1}, 4},    // <e>, skipping over <b>'s subtree
		{[]int{0, 0, 0}, 2}, // <c>
		{[]int{0, 0, 1}, 3}, // <d>
		{[]int{1, 0}, 6},    // <u>
	}
	for _, tt := range cases {
		got, err := ResolvePath(rel, tt.path)
		if err != nil {
			t.Errorf("path %v: %v", tt.path, err)
			continue
		}
		if want := rel.Tuples[tt.dfs].L; !got.Equal(want) {
			t.Errorf("path %v = %s, want %s (dfs %d)", tt.path, got, want, tt.dfs)
		}
	}
	for _, bad := range [][]int{nil, {}, {2}, {0, 2}, {0, 1, 0}, {-1}, {0, -3}} {
		if _, err := ResolvePath(rel, bad); err == nil {
			t.Errorf("path %v resolved, want error", bad)
		}
	}
	// Out-of-range ordinals are ErrNotFound (a well-formed address into
	// absent structure); malformed ordinals are not.
	if _, err := ResolvePath(rel, []int{0, 9}); !errors.Is(err, ErrNotFound) {
		t.Errorf("out-of-range ordinal error = %v", err)
	}
	if _, err := ResolvePath(rel, []int{-1}); errors.Is(err, ErrNotFound) {
		t.Error("negative ordinal reported as not-found")
	}
}

// TestResolvePathAfterUpdates: addressing stays consistent across the
// update operators — the relation remains L-sorted, so ordinals track
// the post-update sibling order.
func TestResolvePathAfterUpdates(t *testing.T) {
	f, _ := xmltree.Parse(`<r><a/><b/></r>`)
	rel := interval.Encode(f)
	ins := xmltree.Forest{xmltree.NewElement("n")}
	aL, err := ResolvePath(rel, []int{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	rel2, err := InsertAfter(rel, aL, ins)
	if err != nil {
		t.Fatal(err)
	}
	// <r><a/><n/><b/></r>: ordinal 1 is now the inserted node.
	nL, err := ResolvePath(rel2, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for ; i < len(rel2.Tuples); i++ {
		if rel2.Tuples[i].L.Equal(nL) {
			break
		}
	}
	if rel2.Tuples[i].S != "<n>" {
		t.Fatalf("ordinal 1 resolved to %s, want <n>", rel2.Tuples[i].S)
	}
}

// TestNeedsRebuild: only negative digits trigger a rebuild — growth
// alone (multi-digit keys from middle inserts) is storable as-is.
func TestNeedsRebuild(t *testing.T) {
	f, _ := xmltree.Parse(`<r><a/><b/></r>`)
	rel := interval.Encode(f)
	if NeedsRebuild(rel) {
		t.Fatal("fresh encoding flagged for rebuild")
	}
	aL := rel.Tuples[1].L
	mid, err := InsertAfter(rel, aL, xmltree.Forest{xmltree.NewElement("m")})
	if err != nil {
		t.Fatal(err)
	}
	if NeedsRebuild(mid) {
		t.Error("middle insert flagged for rebuild")
	}
	// A front insert steps below the first root's leading digit 0, so the
	// fresh keys carry a negative digit the store cannot write.
	front, err := InsertBefore(rel, rel.Tuples[0].L, xmltree.Forest{xmltree.NewElement("f1")})
	if err != nil {
		t.Fatal(err)
	}
	if !NeedsRebuild(front) {
		t.Error("front insert not flagged for rebuild")
	}
	rebuilt, err := Rebuild(front)
	if err != nil {
		t.Fatal(err)
	}
	if NeedsRebuild(rebuilt) {
		t.Error("rebuild left negative digits")
	}
}

// TestMaxKeyLenAfterUpdates: every update builds a new relation, so its
// memoized width is its own — equal to a fresh scan even when the input's
// width was read (and memoized) first. The delete removes the only
// multi-digit subtree, so the width shrinks back to one digit; the
// front-insert Rebuild re-encodes to one digit too.
func TestMaxKeyLenAfterUpdates(t *testing.T) {
	fresh := func(rel *interval.Relation) int { return (&interval.Relation{Tuples: rel.Tuples}).MaxKeyLen() }
	f, _ := xmltree.Parse(`<r><a><x/></a><b/></r>`)
	rel := interval.Encode(f)
	ins := xmltree.Forest{xmltree.NewElement("m")}
	aL, bL := rel.Tuples[1].L, rel.Tuples[3].L
	grown, err := InsertAfter(rel, aL, xmltree.Forest{&xmltree.Node{Label: "<n>", Children: ins}})
	if err != nil {
		t.Fatal(err)
	}
	nL := grown.Tuples[3].L
	steps := []struct {
		name string
		in   *interval.Relation
		op   func(*interval.Relation) (*interval.Relation, error)
		want int
	}{
		{"InsertAfter", rel, func(r *interval.Relation) (*interval.Relation, error) { return InsertAfter(r, aL, ins) }, 2},
		{"InsertBefore", rel, func(r *interval.Relation) (*interval.Relation, error) { return InsertBefore(r, bL, ins) }, 2},
		{"AppendChild", rel, func(r *interval.Relation) (*interval.Relation, error) { return AppendChild(r, aL, ins) }, 2},
		{"PrependChild", rel, func(r *interval.Relation) (*interval.Relation, error) { return PrependChild(r, bL, ins) }, 2},
		{"DeleteSubtree", grown, func(r *interval.Relation) (*interval.Relation, error) { return DeleteSubtree(r, nL) }, 1},
		{"front Rebuild", rel, func(r *interval.Relation) (*interval.Relation, error) {
			front, err := InsertBefore(r, r.Tuples[0].L, ins)
			if err != nil {
				return nil, err
			}
			front.MaxKeyLen()
			return Rebuild(front)
		}, 1},
	}
	for _, s := range steps {
		s.in.MaxKeyLen()
		out, err := s.op(s.in)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if got := out.MaxKeyLen(); got != fresh(out) || got != s.want {
			t.Fatalf("%s: MaxKeyLen %d, fresh scan %d, want %d", s.name, got, fresh(out), s.want)
		}
	}
}

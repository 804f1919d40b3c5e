package update

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"dixq/internal/index"
	"dixq/internal/interval"
	"dixq/internal/xmltree"
)

// ends returns the subtree ends of rel, the addressing the operators take.
func ends(rel *interval.Relation) []int32 { return index.Build(rel).End }

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
	end := ends(rel)
	const a, b = 0, 1 // rows of <a> and <b>
	ins := xmltree.Forest{xmltree.NewElement("n", xmltree.NewText("new"))}

	after, _, err := InsertAfter(rel, end, b, ins)
	if err != nil {
		t.Fatal(err)
	}
	if got := mustDecode(t, after).String(); got != `<a><b>x</b><n>new</n><c/></a>` {
		t.Errorf("InsertAfter = %s", got)
	}

	before, _, err := InsertBefore(rel, end, b, ins)
	if err != nil {
		t.Fatal(err)
	}
	if got := mustDecode(t, before).String(); got != `<a><n>new</n><b>x</b><c/></a>` {
		t.Errorf("InsertBefore = %s", got)
	}

	app, _, err := AppendChild(rel, end, a, ins)
	if err != nil {
		t.Fatal(err)
	}
	if got := mustDecode(t, app).String(); got != `<a><b>x</b><c/><n>new</n></a>` {
		t.Errorf("AppendChild = %s", got)
	}

	pre, _, err := PrependChild(rel, end, a, ins)
	if err != nil {
		t.Fatal(err)
	}
	if got := mustDecode(t, pre).String(); got != `<a><n>new</n><b>x</b><c/></a>` {
		t.Errorf("PrependChild = %s", got)
	}

	del, _, err := DeleteSubtree(rel, end, b)
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
	out, _, err := InsertAfter(rel, ends(rel), 1, xmltree.Forest{xmltree.NewElement("n")})
	if err != nil {
		t.Fatal(err)
	}
	if got := mustDecode(t, out).String(); got != `<a><b/><n/></a><t/>` {
		t.Errorf("got %s, want <a><b/><n/></a><t/>", got)
	}
	// And before a node whose preceding key is an ancestor's R.
	out2, _, err := InsertBefore(rel, ends(rel), 2, xmltree.Forest{xmltree.NewElement("m")})
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
	out, _, err := InsertBefore(rel, ends(rel), 0, xmltree.Forest{xmltree.NewElement("z")})
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
	end := ends(rel)
	for _, missing := range []int{99, 1, -1} {
		for _, err := range []error{
			errOf(DeleteSubtree(rel, end, missing)),
			errOf(InsertAfter(rel, end, missing, nil)),
			errOf(InsertBefore(rel, end, missing, nil)),
			errOf(AppendChild(rel, end, missing, nil)),
			errOf(PrependChild(rel, end, missing, nil)),
		} {
			if !errors.Is(err, ErrNotFound) {
				t.Errorf("row %d: err = %v, want ErrNotFound", missing, err)
			}
		}
	}
}

func errOf(_ *interval.Relation, _ interval.Edit, err error) error { return err }

// TestRandomUpdateSequences applies random update sequences to a relation
// and to the decoded forest (the oracle); after every step the relation
// must stay a valid encoding that decodes to the oracle's forest, and the
// reported Edit must describe the change: rows before At and after the
// replaced range are the old tuples, unmoved and shifted.
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
			ins := xmltree.RandomForest(rng, 4)
			prev, end := rel, ends(rel)
			var e interval.Edit
			var err error
			switch rng.Intn(5) {
			case 0:
				forest = oracleDelete(forest, dfs)
				rel, e, err = DeleteSubtree(rel, end, dfs)
			case 1:
				forest = oracleInsertAfter(forest, dfs, ins)
				rel, e, err = InsertAfter(rel, end, dfs, ins)
			case 2:
				forest = oracleInsertBefore(forest, dfs, ins)
				rel, e, err = InsertBefore(rel, end, dfs, ins)
			case 3:
				forest = oracleAppendChild(forest, dfs, ins)
				rel, e, err = AppendChild(rel, end, dfs, ins)
			default:
				forest = oraclePrependChild(forest, dfs, ins)
				rel, e, err = PrependChild(rel, end, dfs, ins)
			}
			if err != nil {
				t.Logf("seed %d step %d: %v", seed, step, err)
				return false
			}
			if len(rel.Tuples) != len(prev.Tuples)+e.Delta() ||
				!slices.EqualFunc(rel.Tuples[:e.At], prev.Tuples[:e.At], sameTuple) ||
				!slices.EqualFunc(rel.Tuples[e.At+e.Inserted:], prev.Tuples[e.At+e.Removed:], sameTuple) {
				t.Logf("seed %d step %d: edit %+v does not describe the change", seed, step, e)
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
	newPerson, _ := xmltree.Parse(`<person id="p1"><name>B</name></person>`)
	rel2, _, err := AppendChild(rel, ends(rel), 1, newPerson)
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
	end := ends(rel)
	for _, tt := range cases {
		got, err := ResolvePath(end, tt.path)
		if err != nil {
			t.Errorf("path %v: %v", tt.path, err)
			continue
		}
		if got != tt.dfs {
			t.Errorf("path %v = row %d, want %d", tt.path, got, tt.dfs)
		}
	}
	for _, bad := range [][]int{nil, {}, {2}, {0, 2}, {0, 1, 0}, {-1}, {0, -3}} {
		if _, err := ResolvePath(end, bad); err == nil {
			t.Errorf("path %v resolved, want error", bad)
		}
	}
	// Out-of-range ordinals are ErrNotFound (a well-formed address into
	// absent structure); malformed ordinals are not.
	if _, err := ResolvePath(end, []int{0, 9}); !errors.Is(err, ErrNotFound) {
		t.Errorf("out-of-range ordinal error = %v", err)
	}
	if _, err := ResolvePath(end, []int{-1}); errors.Is(err, ErrNotFound) {
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
	a, err := ResolvePath(ends(rel), []int{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	rel2, _, err := InsertAfter(rel, ends(rel), a, ins)
	if err != nil {
		t.Fatal(err)
	}
	// <r><a/><n/><b/></r>: ordinal 1 is now the inserted node.
	i, err := ResolvePath(ends(rel2), []int{0, 1})
	if err != nil {
		t.Fatal(err)
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
	mid, _, err := InsertAfter(rel, ends(rel), 1, xmltree.Forest{xmltree.NewElement("m")})
	if err != nil {
		t.Fatal(err)
	}
	if NeedsRebuild(mid) {
		t.Error("middle insert flagged for rebuild")
	}
	// A front insert steps below the first root's leading digit 0, so the
	// fresh keys carry a negative digit the store cannot write.
	front, _, err := InsertBefore(rel, ends(rel), 0, xmltree.Forest{xmltree.NewElement("f1")})
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
	const a, b = 1, 3 // rows of <a> and <b>
	grown, _, err := InsertAfter(rel, ends(rel), a, xmltree.Forest{&xmltree.Node{Label: "<n>", Children: ins}})
	if err != nil {
		t.Fatal(err)
	}
	const n = 3 // row of <n> in grown
	drop := func(r *interval.Relation, _ interval.Edit, err error) (*interval.Relation, error) { return r, err }
	steps := []struct {
		name string
		in   *interval.Relation
		op   func(*interval.Relation) (*interval.Relation, error)
		want int
	}{
		{"InsertAfter", rel, func(r *interval.Relation) (*interval.Relation, error) { return drop(InsertAfter(r, ends(r), a, ins)) }, 2},
		{"InsertBefore", rel, func(r *interval.Relation) (*interval.Relation, error) { return drop(InsertBefore(r, ends(r), b, ins)) }, 2},
		{"AppendChild", rel, func(r *interval.Relation) (*interval.Relation, error) { return drop(AppendChild(r, ends(r), a, ins)) }, 2},
		{"PrependChild", rel, func(r *interval.Relation) (*interval.Relation, error) { return drop(PrependChild(r, ends(r), b, ins)) }, 2},
		{"DeleteSubtree", grown, func(r *interval.Relation) (*interval.Relation, error) { return drop(DeleteSubtree(r, ends(r), n)) }, 1},
		{"front Rebuild", rel, func(r *interval.Relation) (*interval.Relation, error) {
			front, _, err := InsertBefore(r, ends(r), 0, ins)
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

// sameTuple compares two tuples by label and key values.
func sameTuple(a, b interval.Tuple) bool { return a.S == b.S && a.L.Equal(b.L) && a.R.Equal(b.R) }

package engine

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dixq/internal/interval"
	"dixq/internal/xfn"
	"dixq/internal/xmltree"
)

// checkOp verifies an engine operator against its xfn specification on the
// single-environment (freshly encoded) case: decode(op(encode(f))) must
// equal spec(f).
func checkOp(t *testing.T, name string, op func(*interval.Relation) *interval.Relation, spec func(xmltree.Forest) xmltree.Forest) {
	t.Helper()
	cfg := &quick.Config{MaxCount: 250}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		forest := xmltree.RandomForest(rng, 12)
		got, err := interval.Decode(op(interval.Encode(forest)))
		if err != nil {
			t.Logf("%s seed %d: invalid output encoding: %v", name, seed, err)
			return false
		}
		want := spec(forest)
		if !got.Equal(want) {
			t.Logf("%s seed %d:\n in  %s\n got %s\nwant %s", name, seed, forest.String(), got.String(), want.String())
			return false
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Errorf("%s: %v", name, err)
	}
}

func TestOpsMatchSpec(t *testing.T) {
	single := Index{interval.Key{}}
	checkOp(t, "Roots", Roots, xfn.Roots)
	checkOp(t, "Children", Children, xfn.Children)
	checkOp(t, "SelectLabel", func(r *interval.Relation) *interval.Relation {
		return SelectLabel("<a>", r)
	}, func(f xmltree.Forest) xmltree.Forest { return xfn.Select("<a>", f) })
	checkOp(t, "SelectText", SelectText, xfn.SelText)
	checkOp(t, "Data", Data, xfn.Data)
	checkOp(t, "Head", func(r *interval.Relation) *interval.Relation { return Head(r, 0) }, xfn.Head)
	checkOp(t, "Tail", func(r *interval.Relation) *interval.Relation { return Tail(r, 0) }, xfn.Tail)
	checkOp(t, "Reverse", func(r *interval.Relation) *interval.Relation { return Reverse(r, 0) }, xfn.Reverse)
	checkOp(t, "SortTrees", func(r *interval.Relation) *interval.Relation { return unbudgeted(SortTrees(r, 0, 1, nil)) }, xfn.Sort)
	checkOp(t, "Distinct", func(r *interval.Relation) *interval.Relation { return unbudgeted(Distinct(r, 0, 1, nil)) }, xfn.Distinct)
	checkOp(t, "SubtreesDFS", func(r *interval.Relation) *interval.Relation { return SubtreesDFS(r, 0) }, xfn.SubtreesDFS)
	checkOp(t, "Construct", func(r *interval.Relation) *interval.Relation {
		return Construct(single, 0, "<w>", r)
	}, func(f xmltree.Forest) xmltree.Forest { return xfn.Node("<w>", f) })
	checkOp(t, "Count", func(r *interval.Relation) *interval.Relation {
		return Count(single, 0, r)
	}, xfn.Count)
}

func TestConcatMatchesSpec(t *testing.T) {
	single := Index{interval.Key{}}
	cfg := &quick.Config{MaxCount: 250}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fa := xmltree.RandomForest(rng, 8)
		fb := xmltree.RandomForest(rng, 8)
		got, err := interval.Decode(Concat(single, 0, interval.Encode(fa), interval.Encode(fb)))
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return got.Equal(xfn.Concat(fa, fb))
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestOutputsStaySorted(t *testing.T) {
	single := Index{interval.Key{}}
	cfg := &quick.Config{MaxCount: 150}
	ops := map[string]func(*interval.Relation) *interval.Relation{
		"Roots":       Roots,
		"Children":    Children,
		"Data":        Data,
		"Head":        func(r *interval.Relation) *interval.Relation { return Head(r, 0) },
		"Tail":        func(r *interval.Relation) *interval.Relation { return Tail(r, 0) },
		"Reverse":     func(r *interval.Relation) *interval.Relation { return Reverse(r, 0) },
		"SortTrees":   func(r *interval.Relation) *interval.Relation { return unbudgeted(SortTrees(r, 0, 1, nil)) },
		"Distinct":    func(r *interval.Relation) *interval.Relation { return unbudgeted(Distinct(r, 0, 1, nil)) },
		"SubtreesDFS": func(r *interval.Relation) *interval.Relation { return SubtreesDFS(r, 0) },
		"Construct":   func(r *interval.Relation) *interval.Relation { return Construct(single, 0, "<w>", r) },
	}
	for name, op := range ops {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			out := op(interval.Encode(xmltree.RandomForest(rng, 10)))
			return out.IsSorted()
		}
		if err := quick.Check(f, cfg); err != nil {
			t.Errorf("%s output unsorted: %v", name, err)
		}
	}
}

func TestCompareForestsMatchesTreeCompare(t *testing.T) {
	cfg := &quick.Config{MaxCount: 800}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fa := xmltree.RandomForest(rng, 8)
		fb := xmltree.RandomForest(rng, 8)
		got := CompareForests(interval.Encode(fa).Tuples, interval.Encode(fb).Tuples)
		want := fa.Compare(fb)
		if got != want {
			t.Logf("seed %d: CompareForests(%s, %s) = %d, want %d", seed, fa.String(), fb.String(), got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestCompareForestsSelf(t *testing.T) {
	fa, _ := xmltree.Parse(`<a><b x="1">t</b><c/></a>`)
	enc := interval.Encode(fa)
	if CompareForests(enc.Tuples, enc.Tuples) != 0 {
		t.Error("forest not equal to itself")
	}
	if !EqualForests(enc.Tuples, enc.Tuples) {
		t.Error("EqualForests(x, x) = false")
	}
	if EqualForests(enc.Tuples, enc.Tuples[:3]) {
		t.Error("EqualForests with different sizes = true")
	}
}

// encodeInEnvs builds a multi-environment fixture: each forest is placed in
// its own one-digit environment (i at digit 0), tuples carry the prefix.
func encodeInEnvs(forests []xmltree.Forest) (Index, *interval.Relation) {
	index := make(Index, len(forests))
	rel := &interval.Relation{}
	for i, f := range forests {
		index[i] = interval.Key{int64(i)}
		enc := interval.Encode(f)
		for _, t := range enc.Tuples {
			rel.Tuples = append(rel.Tuples, interval.Tuple{
				S: t.S,
				L: interval.Key{int64(i)}.Append(t.L...),
				R: interval.Key{int64(i)}.Append(t.R...),
			})
		}
	}
	return index, rel
}

// decodeEnv extracts and decodes one environment's forest.
func decodeEnv(t *testing.T, rel *interval.Relation, env int64) xmltree.Forest {
	t.Helper()
	sub := &interval.Relation{}
	for _, tp := range rel.Tuples {
		if tp.L.Digit(0) == env {
			sub.Tuples = append(sub.Tuples, tp)
		}
	}
	f, err := interval.Decode(sub)
	if err != nil {
		t.Fatalf("decodeEnv(%d): %v", env, err)
	}
	return f
}

func TestPerEnvOpsRespectEnvironments(t *testing.T) {
	cfg := &quick.Config{MaxCount: 120}
	type envOp struct {
		op   func(Index, int, *interval.Relation) *interval.Relation
		spec func(xmltree.Forest) xmltree.Forest
	}
	ops := map[string]envOp{
		"Head": {func(_ Index, d int, r *interval.Relation) *interval.Relation { return Head(r, d) }, xfn.Head},
		"Tail": {func(_ Index, d int, r *interval.Relation) *interval.Relation { return Tail(r, d) }, xfn.Tail},
		"Reverse": {func(_ Index, d int, r *interval.Relation) *interval.Relation {
			return Reverse(r, d)
		}, xfn.Reverse},
		"SortTrees": {func(_ Index, d int, r *interval.Relation) *interval.Relation {
			return unbudgeted(SortTrees(r, d, 1, nil))
		}, xfn.Sort},
		"Distinct": {func(_ Index, d int, r *interval.Relation) *interval.Relation {
			return unbudgeted(Distinct(r, d, 1, nil))
		}, xfn.Distinct},
		"SubtreesDFS": {func(_ Index, d int, r *interval.Relation) *interval.Relation {
			return SubtreesDFS(r, d)
		}, xfn.SubtreesDFS},
		"Construct": {func(ix Index, d int, r *interval.Relation) *interval.Relation {
			return Construct(ix, d, "<w>", r)
		}, func(f xmltree.Forest) xmltree.Forest { return xfn.Node("<w>", f) }},
		"Count": {func(ix Index, d int, r *interval.Relation) *interval.Relation {
			return Count(ix, d, r)
		}, xfn.Count},
		"Roots":    {func(_ Index, _ int, r *interval.Relation) *interval.Relation { return Roots(r) }, xfn.Roots},
		"Children": {func(_ Index, _ int, r *interval.Relation) *interval.Relation { return Children(r) }, xfn.Children},
	}
	for name, o := range ops {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			n := 1 + rng.Intn(4)
			forests := make([]xmltree.Forest, n)
			for i := range forests {
				forests[i] = xmltree.RandomForest(rng, 6)
				if rng.Intn(4) == 0 {
					forests[i] = nil // empty environments must work
				}
			}
			index, rel := encodeInEnvs(forests)
			out := o.op(index, 1, rel)
			for i, forest := range forests {
				got := decodeEnv(t, out, int64(i))
				if !got.Equal(o.spec(forest)) {
					t.Logf("%s seed %d env %d:\n in  %s\n got %s\nwant %s",
						name, seed, i, forest.String(), got.String(), o.spec(forest).String())
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, cfg); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestConcatPerEnv(t *testing.T) {
	cfg := &quick.Config{MaxCount: 120}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(4)
		fas := make([]xmltree.Forest, n)
		fbs := make([]xmltree.Forest, n)
		for i := range fas {
			fas[i] = xmltree.RandomForest(rng, 5)
			fbs[i] = xmltree.RandomForest(rng, 5)
		}
		index, ra := encodeInEnvs(fas)
		_, rb := encodeInEnvs(fbs)
		out := Concat(index, 1, ra, rb)
		for i := range fas {
			got := decodeEnv(t, out, int64(i))
			if !got.Equal(xfn.Concat(fas[i], fbs[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

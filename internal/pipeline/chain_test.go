package pipeline

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"dixq/internal/engine"
	"dixq/internal/interval"
	"dixq/internal/xfn"
	"dixq/internal/xmltree"
)

// sameTuples compares two relations digit-for-digit: labels, exact key
// lengths, and every digit must match. Stricter than Key.Equal on purpose —
// the fused chains promise digit-identical output to the materializing
// engine operators.
func sameTuples(t *testing.T, name string, got, want *interval.Relation) bool {
	t.Helper()
	if len(got.Tuples) != len(want.Tuples) {
		t.Logf("%s: %d tuples, want %d", name, len(got.Tuples), len(want.Tuples))
		return false
	}
	for i := range got.Tuples {
		a, b := got.Tuples[i], want.Tuples[i]
		if a.S != b.S || len(a.L) != len(b.L) || len(a.R) != len(b.R) ||
			!a.L.Equal(b.L) || !a.R.Equal(b.R) {
			t.Logf("%s: tuple %d = %s (lens %d/%d), want %s (lens %d/%d)",
				name, i, a, len(a.L), len(a.R), b, len(b.L), len(b.R))
			return false
		}
	}
	return true
}

// run filters the rows of rel in ranges through fresh copies of stages and
// returns the output with the per-stage survivor counts.
func run(rel *interval.Relation, ranges [][2]int32, stages ...Stage) (*interval.Relation, []int) {
	rows := make([]int, len(stages))
	st := append([]Stage(nil), stages...)
	return &interval.Relation{Tuples: Filter(rel, ranges, st, rows)}, rows
}

// whole is the single range covering all of rel — a scan's source.
func whole(rel *interval.Relation) [][2]int32 { return [][2]int32{{0, int32(rel.Len())}} }

// stageSpecs maps every stage to the materializing engine operator that
// specifies it.
var stageSpecs = []struct {
	name  string
	stage Stage
	spec  func(*interval.Relation) *interval.Relation
}{
	{"Roots", RootsStage(), engine.Roots},
	{"Children", ChildrenStage(), engine.Children},
	{"SelectLabel", SelectLabelStage("<a>"),
		func(r *interval.Relation) *interval.Relation { return engine.SelectLabel("<a>", r) }},
	{"SelectText", SelectTextStage(), engine.SelectText},
	{"Data", DataStage(), engine.Data},
	{"Head", HeadStage(0),
		func(r *interval.Relation) *interval.Relation { return engine.Head(r, 0) }},
	{"Tail", TailStage(0),
		func(r *interval.Relation) *interval.Relation { return engine.Tail(r, 0) }},
}

// TestStagesMatchEngine is the per-operator differential: every stage over
// one full range must reproduce its engine operator digit-for-digit on
// random forests, and count exactly the rows it returns.
func TestStagesMatchEngine(t *testing.T) {
	for _, p := range stageSpecs {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			rel := interval.Encode(xmltree.RandomForest(rng, 12))
			got, rows := run(rel, whole(rel), p.stage)
			return sameTuples(t, p.name, got, p.spec(rel)) && rows[0] == got.Len()
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", p.name, err)
		}
	}
}

// randomRanges cuts [0, n) into sorted, disjoint ranges with random gaps
// between them — the shape of an index seek's resolution.
func randomRanges(rng *rand.Rand, n int) [][2]int32 {
	var ranges [][2]int32
	for lo := 0; lo < n; {
		hi := min(n, lo+1+rng.Intn(6))
		if rng.Intn(3) > 0 {
			ranges = append(ranges, [2]int32{int32(lo), int32(hi)})
		}
		lo = hi + rng.Intn(3)
	}
	return ranges
}

// gather materializes the rows of rel inside ranges, in order.
func gather(rel *interval.Relation, ranges [][2]int32) *interval.Relation {
	out := &interval.Relation{}
	for _, r := range ranges {
		out.Tuples = append(out.Tuples, rel.Tuples[r[0]:r[1]]...)
	}
	return out
}

// TestStagesOverDisjointRanges is the seek source: filtering several
// disjoint ranges of a relation in one call must equal the engine operator
// over the gathered rows of those ranges — state carries across range
// boundaries exactly as over the concatenation.
func TestStagesOverDisjointRanges(t *testing.T) {
	for _, p := range stageSpecs {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			rel := interval.Encode(xmltree.RandomForest(rng, 15))
			ranges := randomRanges(rng, rel.Len())
			got, _ := run(rel, ranges, p.stage)
			return sameTuples(t, p.name, got, p.spec(gather(rel, ranges)))
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", p.name, err)
		}
	}
}

// TestFusedChainMatchesEngineAndSpec runs a two-step path plus atomization
// — select("<a>", children(·)) then data(·) — as one fused three-stage
// chain, over the whole relation and over disjoint ranges, and through the
// materializing engine operators; all must agree digit-for-digit, and the
// full-range run must decode to the forest-level specification.
func TestFusedChainMatchesEngineAndSpec(t *testing.T) {
	chain := []Stage{ChildrenStage(), SelectLabelStage("<a>"), DataStage()}
	spec := func(r *interval.Relation) *interval.Relation {
		return engine.Data(engine.SelectLabel("<a>", engine.Children(r)))
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		forest := xmltree.RandomForest(rng, 15)
		rel := interval.Encode(forest)
		got, _ := run(rel, whole(rel), chain...)
		if !sameTuples(t, "chain", got, spec(rel)) {
			return false
		}
		decoded, err := interval.Decode(got)
		if err != nil || !decoded.Equal(xfn.Data(xfn.Select("<a>", xfn.Children(forest)))) {
			t.Logf("seed %d: fused chain diverged from the xfn specification (%v)", seed, err)
			return false
		}
		ranges := randomRanges(rng, rel.Len())
		got, _ = run(rel, ranges, chain...)
		return sameTuples(t, "chain/ranges", got, spec(gather(rel, ranges)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// multiEnv lays forests out as consecutive depth-1 environments, one per
// forest (an empty forest is an environment without tuples).
func multiEnv(forests ...xmltree.Forest) *interval.Relation {
	rel := &interval.Relation{}
	for i, f := range forests {
		for _, tp := range interval.Encode(f).Tuples {
			rel.Tuples = append(rel.Tuples, interval.Tuple{
				S: tp.S,
				L: append(interval.Key{int64(i)}, tp.L...),
				R: append(interval.Key{int64(i)}, tp.R...),
			})
		}
	}
	return rel
}

// TestHeadTailMultiEnv pins the environment-boundary state machine: head
// and tail at depth 1 over multi-environment input, on a fixed layout and
// on random ones, over the whole relation and over disjoint ranges.
func TestHeadTailMultiEnv(t *testing.T) {
	rel := multiEnv(
		xmltree.Forest{xmltree.NewElement("a", xmltree.NewText("x")), xmltree.NewElement("b")},
		nil,
		xmltree.Forest{xmltree.NewText("only")},
		xmltree.Forest{xmltree.NewElement("c"), xmltree.NewElement("d"), xmltree.NewElement("e")},
	)
	wantHead, wantTail := engine.Head(rel, 1), engine.Tail(rel, 1)
	if wantHead.Len()+wantTail.Len() != rel.Len() || wantHead.Len() != 4 {
		t.Fatalf("reference head/tail do not partition the input: %d + %d of %d",
			wantHead.Len(), wantTail.Len(), rel.Len())
	}
	if got, _ := run(rel, whole(rel), HeadStage(1)); !sameTuples(t, "head", got, wantHead) {
		t.Error("head diverged")
	}
	if got, _ := run(rel, whole(rel), TailStage(1)); !sameTuples(t, "tail", got, wantTail) {
		t.Error("tail diverged")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		forests := make([]xmltree.Forest, 1+rng.Intn(5))
		for i := range forests {
			forests[i] = xmltree.RandomForest(rng, 6)
		}
		rel := multiEnv(forests...)
		for _, ranges := range [][][2]int32{whole(rel), randomRanges(rng, rel.Len())} {
			in := gather(rel, ranges)
			head, _ := run(rel, ranges, HeadStage(1))
			tail, _ := run(rel, ranges, TailStage(1))
			if !sameTuples(t, "head", head, engine.Head(in, 1)) ||
				!sameTuples(t, "tail", tail, engine.Tail(in, 1)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestChainStats checks the chain's own per-stage accounting: every stage
// reports the rows it kept, the last entry is the chain's output, and a
// chain that filters everything out returns nothing.
func TestChainStats(t *testing.T) {
	f, _ := xmltree.Parse(`<a><b/></a><c/><d>x</d>`)
	rel := interval.Encode(f)
	out, rows := run(rel, whole(rel), ChildrenStage(), DataStage())
	children, data := engine.Children(rel), engine.Data(engine.Children(rel))
	if !sameTuples(t, "chain", out, data) {
		t.Fatal("chain output diverged from the engine operators")
	}
	if len(rows) != 2 || rows[0] != children.Len() || rows[1] != data.Len() {
		t.Fatalf("rows = %v, want %d then %d", rows, children.Len(), data.Len())
	}
	if out, rows := run(rel, whole(rel), SelectLabelStage("<never>")); out.Len() != 0 || rows[0] != 0 {
		t.Errorf("filtering everything out returned %d rows, counted %d", out.Len(), rows[0])
	}
	if out, _ := run(&interval.Relation{}, nil, RootsStage()); out.Len() != 0 {
		t.Errorf("empty input returned %d rows", out.Len())
	}
}

// TestParallelChainMatchesSerial splits large random forests into morsels
// and checks the parallel runner against the serial filter: the same
// tuples, the same per-stage counts, for chains with and without
// environment-scoped stages.
func TestParallelChainMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var forests []xmltree.Forest
	rows := 0
	for rows < 8*minMorselRows {
		f := xmltree.RandomForest(rng, 40)
		forests = append(forests, f)
		rows += 2 * f.Size()
	}
	var flat xmltree.Forest
	for _, f := range forests {
		flat = append(flat, f...)
	}
	for _, tc := range []struct {
		name   string
		rel    *interval.Relation
		stages []Stage
	}{
		{"trees", interval.Encode(flat), []Stage{ChildrenStage(), SelectLabelStage("<a>"), DataStage()}},
		{"roots", interval.Encode(flat), []Stage{RootsStage()}},
		{"envs", multiEnv(forests...), []Stage{TailStage(1), ChildrenStage()}},
	} {
		want, wantRows := run(tc.rel, whole(tc.rel), tc.stages...)
		res, ok := RunChainParallel(tc.rel, tc.stages, 4)
		if !ok || res.Morsels < 2 {
			t.Fatalf("%s: %d rows did not split (ok=%v, %d morsels)", tc.name, tc.rel.Len(), ok, res.Morsels)
		}
		if !sameTuples(t, tc.name, res.Rel, want) || !slices.Equal(res.Rows, wantRows) {
			t.Errorf("%s: parallel run diverged (rows %v, serial %v)", tc.name, res.Rows, wantRows)
		}
	}
	if _, ok := RunChainParallel(interval.Encode(flat), []Stage{HeadStage(0)}, 4); ok {
		t.Error("a depth-0 head chain has no safe split points but ran parallel")
	}
}

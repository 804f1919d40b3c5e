package pipeline

import (
	"math/rand"
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

// run filters rel through fresh copies of stages and returns the output
// with the per-stage survivor counts.
func run(rel *interval.Relation, stages ...Stage) (*interval.Relation, []int) {
	rows := make([]int, len(stages))
	st := append([]Stage(nil), stages...)
	return &interval.Relation{Tuples: Filter(rel, st, rows).Of(rel.Tuples)}, rows
}

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

// TestStagesMatchEngine is the per-operator differential: every stage must
// reproduce its engine operator digit-for-digit on random forests, and
// count exactly the rows it returns.
func TestStagesMatchEngine(t *testing.T) {
	for _, p := range stageSpecs {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			rel := interval.Encode(xmltree.RandomForest(rng, 12))
			got, rows := run(rel, p.stage)
			return sameTuples(t, p.name, got, p.spec(rel)) && rows[0] == got.Len()
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", p.name, err)
		}
	}
}

// TestFusedChainMatchesEngineAndSpec runs a two-step path plus atomization
// — select("<a>", children(·)) then data(·) — as one fused three-stage
// chain and through the materializing engine operators; both must agree
// digit-for-digit, and the chain's output must decode to the forest-level
// specification.
func TestFusedChainMatchesEngineAndSpec(t *testing.T) {
	chain := []Stage{ChildrenStage(), SelectLabelStage("<a>"), DataStage()}
	spec := func(r *interval.Relation) *interval.Relation {
		return engine.Data(engine.SelectLabel("<a>", engine.Children(r)))
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		forest := xmltree.RandomForest(rng, 15)
		rel := interval.Encode(forest)
		got, _ := run(rel, chain...)
		if !sameTuples(t, "chain", got, spec(rel)) {
			return false
		}
		decoded, err := interval.Decode(got)
		if err != nil || !decoded.Equal(xfn.Data(xfn.Select("<a>", xfn.Children(forest)))) {
			t.Logf("seed %d: fused chain diverged from the xfn specification (%v)", seed, err)
			return false
		}
		return true
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
// on random ones.
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
	if got, _ := run(rel, HeadStage(1)); !sameTuples(t, "head", got, wantHead) {
		t.Error("head diverged")
	}
	if got, _ := run(rel, TailStage(1)); !sameTuples(t, "tail", got, wantTail) {
		t.Error("tail diverged")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		forests := make([]xmltree.Forest, 1+rng.Intn(5))
		for i := range forests {
			forests[i] = xmltree.RandomForest(rng, 6)
		}
		rel := multiEnv(forests...)
		head, _ := run(rel, HeadStage(1))
		tail, _ := run(rel, TailStage(1))
		return sameTuples(t, "head", head, engine.Head(rel, 1)) &&
			sameTuples(t, "tail", tail, engine.Tail(rel, 1))
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
	out, rows := run(rel, ChildrenStage(), DataStage())
	children, data := engine.Children(rel), engine.Data(engine.Children(rel))
	if !sameTuples(t, "chain", out, data) {
		t.Fatal("chain output diverged from the engine operators")
	}
	if len(rows) != 2 || rows[0] != children.Len() || rows[1] != data.Len() {
		t.Fatalf("rows = %v, want %d then %d", rows, children.Len(), data.Len())
	}
	if out, rows := run(rel, SelectLabelStage("<never>")); out.Len() != 0 || rows[0] != 0 {
		t.Errorf("filtering everything out returned %d rows, counted %d", out.Len(), rows[0])
	}
	if out, _ := run(&interval.Relation{}, RootsStage()); out.Len() != 0 {
		t.Errorf("empty input returned %d rows", out.Len())
	}
}

// contiguousSurvivors is a flat forest of n <a> leaves followed by n <b>
// leaves, whose select("<a>") survivors are one run: the first n rows.
func contiguousSurvivors(n int) *interval.Relation {
	var f xmltree.Forest
	for _, label := range []string{"a", "b"} {
		for i := 0; i < n; i++ {
			f = append(f, xmltree.NewElement(label))
		}
	}
	return interval.Encode(f)
}

// TestFilterOneRunAllocatesNoTuples pins the view: a chain whose survivors
// are one contiguous run of its input allocates no tuple storage — only the
// run list and the relation header — and its output aliases the input rows.
func TestFilterOneRunAllocatesNoTuples(t *testing.T) {
	const n = 2048
	rel := contiguousSurvivors(n)
	stages := []Stage{SelectLabelStage("<a>")}
	st, rows := make([]Stage, 1), make([]int, 1)
	var out *interval.Relation
	filter := func() {
		copy(st, stages) // fresh state machines for every run
		out = &interval.Relation{Tuples: Filter(rel, st, rows).Of(rel.Tuples)}
	}
	if allocs := testing.AllocsPerRun(50, filter); allocs > 2 {
		t.Errorf("chain: %.0f allocs, want at most 2 (run list, relation)", allocs)
	}
	if out.Len() != n || &out.Tuples[0] != &rel.Tuples[0] {
		t.Errorf("chain output (%d rows) is not a view of its input", out.Len())
	}
}

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
// the batch runtime promises digit-identical output to the materializing
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

// kernelSpecs maps every batch kernel to the materializing engine operator
// that specifies it.
var kernelSpecs = []struct {
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

// TestBatchKernelsMatchEngine is the per-operator differential: every batch
// kernel must reproduce its engine operator digit-for-digit on random
// forests, across batch sizes down to one row per chunk (which exercises
// all the state carried across chunk boundaries).
func TestBatchKernelsMatchEngine(t *testing.T) {
	for _, p := range kernelSpecs {
		for _, bs := range []int{1, 2, 3, 7, DefaultBatchSize} {
			cfg := &quick.Config{MaxCount: 120}
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				rel := interval.Encode(xmltree.RandomForest(rng, 12))
				got := MaterializeBatches(NewChain(NewRelationBatches(rel, bs), []Stage{p.stage}), rel)
				return sameTuples(t, p.name, got, p.spec(rel))
			}
			if err := quick.Check(f, cfg); err != nil {
				t.Errorf("%s (batch=%d): %v", p.name, bs, err)
			}
		}
	}
}

// TestFusedChainMatchesEngineAndSpec runs a two-step path plus atomization
// — select("<a>", children(·)) then data(·) — three ways: as one fused
// Chain over a row-form source, as stacked one-stage Chains over a
// columnar source, and through the materializing engine operators; all
// three must agree digit-for-digit, and decode to the forest-level
// specification.
func TestFusedChainMatchesEngineAndSpec(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		forest := xmltree.RandomForest(rng, 15)
		rel := interval.Encode(forest)
		want := engine.Data(engine.SelectLabel("<a>", engine.Children(rel)))

		stages := []Stage{ChildrenStage(), SelectLabelStage("<a>"), DataStage()}
		got := MaterializeBatches(NewChain(NewRelationBatches(rel, 4), stages), rel)
		if !sameTuples(t, "chain/relation", got, want) {
			return false
		}
		decoded, err := interval.Decode(got)
		if err != nil || !decoded.Equal(xfn.Data(xfn.Select("<a>", xfn.Children(forest)))) {
			t.Logf("seed %d: fused chain diverged from the xfn specification (%v)", seed, err)
			return false
		}

		var b Batch = NewFlatBatches(interval.FlatOf(rel), 4)
		for _, st := range []Stage{ChildrenStage(), SelectLabelStage("<a>"), DataStage()} {
			b = NewChain(b, []Stage{st})
		}
		got2 := MaterializeBatches(b, nil)
		return sameTuples(t, "chain/flat", got2, want)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestBatchHeadTailMultiEnv pins the environment-boundary state machine
// with chunk boundaries falling inside and between environments.
func TestBatchHeadTailMultiEnv(t *testing.T) {
	forests := []xmltree.Forest{
		{xmltree.NewElement("a", xmltree.NewText("x")), xmltree.NewElement("b")},
		nil,
		{xmltree.NewText("only")},
		{xmltree.NewElement("c"), xmltree.NewElement("d"), xmltree.NewElement("e")},
	}
	rel := &interval.Relation{}
	for i, f := range forests {
		enc := interval.Encode(f)
		for _, tp := range enc.Tuples {
			rel.Tuples = append(rel.Tuples, interval.Tuple{
				S: tp.S,
				L: append(interval.Key{int64(i)}, tp.L...),
				R: append(interval.Key{int64(i)}, tp.R...),
			})
		}
	}
	wantHead, wantTail := engine.Head(rel, 1), engine.Tail(rel, 1)
	if wantHead.Len()+wantTail.Len() != rel.Len() || wantHead.Len() != 4 {
		t.Fatalf("reference head/tail do not partition the input: %d + %d of %d",
			wantHead.Len(), wantTail.Len(), rel.Len())
	}
	for _, bs := range []int{1, 2, 3, 64} {
		gotHead := MaterializeBatches(NewChain(NewRelationBatches(rel, bs), []Stage{HeadStage(1)}), rel)
		if !sameTuples(t, "head", gotHead, wantHead) {
			t.Errorf("head diverged at batch=%d", bs)
		}
		gotTail := MaterializeBatches(NewChain(NewRelationBatches(rel, bs), []Stage{TailStage(1)}), rel)
		if !sameTuples(t, "tail", gotTail, wantTail) {
			t.Errorf("tail diverged at batch=%d", bs)
		}
	}
}

// TestCountTreesBatches checks the batched tree counter against the number
// of roots the engine extracts, on random forests and the empty relation.
func TestCountTreesBatches(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		forest := xmltree.RandomForest(rng, 12)
		rel := interval.Encode(forest)
		want := engine.Roots(rel).Len()
		got := CountTreesBatches(NewRelationBatches(rel, 3))
		if got != want || want != len(forest) {
			t.Logf("seed %d: got %d trees, engine %d, forest %d", seed, got, want, len(forest))
			return false
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
	if got := CountTreesBatches(NewRelationBatches(&interval.Relation{}, 3)); got != 0 {
		t.Errorf("CountTreesBatches(empty) = %d", got)
	}
}

// TestChainStats checks the chain's own per-stage accounting: every stage
// reports its surviving rows, the non-empty chunks it passed on and their
// accounted bytes; the last entry describes what the consumer drained; and
// Init zeroes the counters for the next run.
func TestChainStats(t *testing.T) {
	f, _ := xmltree.Parse(`<a><b/></a><c/><d>x</d>`)
	rel := interval.Encode(f)
	c := NewChain(NewRelationBatches(rel, 2), []Stage{ChildrenStage(), DataStage()})
	out := MaterializeBatches(c, rel)
	children, data := engine.Children(rel), engine.Data(engine.Children(rel))
	if !sameTuples(t, "chain", out, data) {
		t.Fatal("chain output diverged from the engine operators")
	}
	st := c.Stats()
	if len(st) != 2 || st[0].Rows != children.Len() || st[1].Rows != data.Len() {
		t.Fatalf("stats = %+v, want rows %d then %d", st, children.Len(), data.Len())
	}
	// Chunk 1 holds <a> and its child <b/>, chunk 2 the roots <c/> and <d>
	// (no child: the chain skips it), chunk 3 the text under <d>.
	if st[0].Batches != 2 || st[1].Batches != 1 {
		t.Errorf("batches = %d then %d, want 2 then 1", st[0].Batches, st[1].Batches)
	}
	if st[0].Bytes <= st[1].Bytes || st[1].Bytes <= 0 {
		t.Errorf("bytes = %d then %d, want positive and shrinking", st[0].Bytes, st[1].Bytes)
	}
	c.Init(NewRelationBatches(rel, 2), []Stage{RootsStage()})
	if st := c.Stats(); len(st) != 1 || st[0] != (StageStat{}) {
		t.Errorf("Init left stats %+v", st)
	}
}

// TestBatchSourcesNeverYieldEmpty pins the no-empty-chunk contract and
// source exhaustion.
func TestBatchSourcesNeverYieldEmpty(t *testing.T) {
	empty := &interval.Relation{}
	if _, ok := NewRelationBatches(empty, 8).Next(); ok {
		t.Error("RelationBatches yielded a chunk for an empty relation")
	}
	if _, ok := NewFlatBatches(interval.FlatOf(empty), 8).Next(); ok {
		t.Error("FlatBatches yielded a chunk for an empty relation")
	}
	rel := interval.Encode(xmltree.Forest{xmltree.NewText("x")})
	src := NewRelationBatches(rel, 8)
	if _, ok := src.Next(); !ok {
		t.Fatal("first Next should yield the single row")
	}
	for i := 0; i < 2; i++ {
		if _, ok := src.Next(); ok {
			t.Fatal("Next after exhaustion should keep reporting false")
		}
	}
	// A chain that filters everything out must report exhaustion, not an
	// empty chunk.
	none := NewChain(NewRelationBatches(rel, 8), []Stage{SelectLabelStage("<never>")})
	if _, ok := none.Next(); ok {
		t.Error("chain yielded an empty chunk")
	}
}

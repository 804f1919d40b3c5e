package engine

import (
	"context"
	"errors"
	"testing"

	"dixq/internal/interval"
	"dixq/internal/xmltree"
)

func TestBudgetMaxTuples(t *testing.T) {
	doc, _ := xmltree.Parse(`<a><b/><c/><d/></a>`)
	rel := interval.Encode(doc)
	dom := interval.Encode(xmltree.Forest{
		xmltree.NewElement("x"), xmltree.NewElement("y"), xmltree.NewElement("z"),
	})
	newIndex := EnterIndex(Roots(dom))
	// 3 new envs × 4 tuples = 12 > 10.
	_, err := EmbedOuter(newIndex, 0, 1, rel, &Budget{MaxTuples: 10})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	out, err := EmbedOuter(newIndex, 0, 1, rel, &Budget{MaxTuples: 100})
	if err != nil || out.Len() != 12 {
		t.Fatalf("out = %v, err = %v", out, err)
	}
}

// TestBudgetStopsOnContext checks that EmbedOuter sees its run's context
// inside the call, at the first environment, not only between operators.
func TestBudgetStopsOnContext(t *testing.T) {
	doc, _ := xmltree.Parse(`<a><b/></a>`)
	rel := interval.Encode(doc)
	newIndex := EnterIndex(Roots(interval.Encode(xmltree.Forest{xmltree.NewElement("x")})))
	ctx, cancel := context.WithCancel(context.Background())
	b := NewBudget(ctx, 0)
	if _, err := EmbedOuter(newIndex, 0, 1, rel, b); err != nil {
		t.Fatalf("live context: %v", err)
	}
	cancel()
	if _, err := EmbedOuter(newIndex, 0, 1, rel, b); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled context: err = %v, want context.Canceled", err)
	}
}

func TestNilBudgetUnlimited(t *testing.T) {
	var b *Budget
	if b.charge(1<<40) != nil {
		t.Fatal("nil budget must never trip")
	}
	zero := &Budget{}
	if zero.charge(1<<40) != nil {
		t.Fatal("zero budget must never trip")
	}
}

func TestCompareForestsEmpty(t *testing.T) {
	some := interval.Encode(xmltree.Forest{xmltree.NewText("x")}).Tuples
	if CompareForests(nil, nil) != 0 {
		t.Error("empty vs empty != 0")
	}
	if CompareForests(nil, some) != -1 || CompareForests(some, nil) != 1 {
		t.Error("empty should sort before any forest")
	}
	if EqualForests(nil, some) {
		t.Error("EqualForests(empty, nonempty)")
	}
}

func TestSubtreesDFSMultiEnv(t *testing.T) {
	forests := []xmltree.Forest{
		{xmltree.NewElement("a", xmltree.NewElement("b"))},
		nil,
		{xmltree.NewText("t"), xmltree.NewElement("c")},
	}
	index, rel := encodeInEnvs(forests)
	out := SubtreesDFS(rel, 1)
	if !out.IsSorted() {
		t.Fatal("unsorted output")
	}
	wants := []string{`<a><b/></a><b/>`, ``, `t<c/>`}
	for i, want := range wants {
		got := decodeEnv(t, out, int64(i))
		if got.String() != want {
			t.Errorf("env %d = %q, want %q", i, got.String(), want)
		}
	}
	_ = index
}

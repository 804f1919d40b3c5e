package core

import (
	"testing"

	"dixq/internal/index"
	"dixq/internal/plan"
	"dixq/internal/xq"
)

// TestOneRangeSeekAllocatesNoTuples pins the seek's view: an index seek
// that resolves to one range of the document serves that range without
// copying it — the only allocations are the relation header and the
// table — so a path chain above it reads the document's own rows.
func TestOneRangeSeekAllocatesNoTuples(t *testing.T) {
	cat, _ := generatedCatalog(0.002, 7)
	opts := Options{ForceJoinMode: ModeMSJ, Indexes: index.BuildSet(cat)}
	p := Compile(xq.MustParse(`document("auction.xml")/site/people/person`), opts).Plan(opts)
	var seek *plan.Node
	plan.Walk(p, func(n *plan.Node) {
		if n.Op == plan.OpIndexPath && n.Seek.Pos == nil && len(n.Seek.Ranges) == 1 {
			seek = n
		}
	})
	if seek == nil {
		t.Fatalf("no one-range seek in the plan:\n%s", p.Tree())
	}
	ev := newEvaluator(cat, opts, p)
	en := ev.rootEnv()
	var tab *table
	var err error
	if allocs := testing.AllocsPerRun(100, func() { tab, err = ev.execIndexPath(seek, en) }); allocs > 2 {
		t.Errorf("one-range seek: %.0f allocs, want at most 2 (relation, table)", allocs)
	}
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := seek.Seek.Ranges[0][0], seek.Seek.Ranges[0][1]
	if tab.rel.Len() != int(hi-lo) || &tab.rel.Tuples[0] != &seek.Seek.Rel.Tuples[lo] {
		t.Errorf("one-range seek (%d rows) is not a view of the document's rows [%d, %d)", tab.rel.Len(), lo, hi)
	}
}

package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"dixq/internal/engine"
	"dixq/internal/interval"
	"dixq/internal/xmark"
	"dixq/internal/xq"
)

// identicalRelations asserts two result relations match tuple-for-tuple
// including the physical digit count of every key — a spilled, indexed or
// parallel run must be indistinguishable from the serial in-memory run.
func identicalRelations(t *testing.T, what string, got, want *interval.Relation) {
	t.Helper()
	if len(got.Tuples) != len(want.Tuples) {
		t.Fatalf("%s: %d tuples, want %d", what, len(got.Tuples), len(want.Tuples))
	}
	for i := range want.Tuples {
		g, w := got.Tuples[i], want.Tuples[i]
		if g.S != w.S || !g.L.Equal(w.L) || !g.R.Equal(w.R) ||
			len(g.L) != len(w.L) || len(g.R) != len(w.R) {
			t.Fatalf("%s: tuple %d is %s (digits %d/%d), want %s (digits %d/%d)",
				what, i, g, len(g.L), len(g.R), w, len(w.L), len(w.R))
		}
	}
}

// TestMemBudgetSpillsDigitIdentical runs the paper's evaluation queries
// over a generated XMark document under a memory budget small enough to
// push every merge-join sort through the external sorter, and checks the
// result is digit-identical to the unbudgeted run. MemBudget degrades to
// disk — it must never change an answer or abort a query.
func TestMemBudgetSpillsDigitIdentical(t *testing.T) {
	cat, _ := generatedCatalog(0.002, 1)
	dir := t.TempDir()
	queries := []struct {
		name   string
		text   string
		spills bool // merge-join sorts run (MSJ only; Q13 has no join)
	}{
		{"Q8", xmark.Q8, true},
		{"Q9", xmark.Q9, true},
		{"Q13", xmark.Q13, false},
	}
	for _, tc := range queries {
		q := Compile(xq.MustParse(tc.text), Options{})
		for _, mode := range []Mode{ModeMSJ, ModeNLJ} {
			want, err := q.Eval(cat, Options{ForceJoinMode: mode})
			if err != nil {
				t.Fatalf("%s/%s unbudgeted: %v", tc.name, mode, err)
			}
			stats := &Stats{}
			got, err := q.Eval(cat, Options{ForceJoinMode: mode, MemBudget: 256, SpillDir: dir, Stats: stats})
			if err != nil {
				t.Fatalf("%s/%s budgeted: %v", tc.name, mode, err)
			}
			identicalRelations(t, tc.name+"/"+mode.String(), got, want)
			if tc.spills && mode == ModeMSJ && stats.SpilledRuns == 0 {
				t.Errorf("%s/MSJ under a 256-byte budget spilled nothing", tc.name)
			}
			if stats.SpilledRuns > 0 && stats.SpilledBytes == 0 {
				t.Errorf("%s/%s: %d runs spilled but zero bytes accounted", tc.name, mode, stats.SpilledRuns)
			}
		}
	}
}

// TestAnalyzeReportsSpilledRuns checks that a budgeted ExplainAnalyze run
// attributes the spilled run count to plan nodes and renders it.
func TestAnalyzeReportsSpilledRuns(t *testing.T) {
	cat, _ := generatedCatalog(0.002, 1)
	q := Compile(xq.MustParse(xmark.Q8), Options{})
	text, rs, err := q.ExplainAnalyze(cat, Options{
		ForceJoinMode: ModeMSJ, MemBudget: 256, SpillDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	var spilled int64
	for _, n := range rs.Nodes {
		spilled += n.Spilled
	}
	if spilled == 0 {
		t.Fatalf("no node reports spilled runs:\n%s", text)
	}
	if !strings.Contains(text, "spilled=") {
		t.Fatalf("rendering lacks spilled counter:\n%s", text)
	}
}

// TestAbortBudgetsStillAbortUnderMemBudget pins the budget split: MemBudget
// never aborts (tested above), while MaxTuples and Timeout still do, even
// when a memory budget is also set.
func TestAbortBudgetsStillAbortUnderMemBudget(t *testing.T) {
	cat, _ := generatedCatalog(0.01, 1)
	q := Compile(xq.MustParse(xmark.Q8), Options{})
	opts := Options{ForceJoinMode: ModeNLJ, MaxTuples: 10_000, MemBudget: 256, SpillDir: t.TempDir()}
	if _, err := q.Eval(cat, opts); !errors.Is(err, engine.ErrBudgetExceeded) {
		t.Fatalf("MaxTuples err = %v, want budget exceeded", err)
	}
	opts = Options{ForceJoinMode: ModeNLJ, Timeout: time.Nanosecond, MemBudget: 256, SpillDir: t.TempDir()}
	if _, err := q.Eval(cat, opts); !errors.Is(err, engine.ErrBudgetExceeded) {
		t.Fatalf("Timeout err = %v, want budget exceeded", err)
	}
}

// The seed-corpus differential test lives in internal/difftest, where the
// same corpus drives every engine variant through one matrix
// (TestEnginesAgreeOnCorpus).

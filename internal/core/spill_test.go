package core

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"dixq/internal/engine"
	"dixq/internal/exitcheck"
	"dixq/internal/interval"
	"dixq/internal/xmark"
	"dixq/internal/xq"
)

// identicalRelations asserts two result relations match tuple-for-tuple
// including the physical digit count of every key — a spilled or indexed
// run must be indistinguishable from the in-memory scan-backed run.
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

// distinctQuery is the distinct() case of the difftest corpus.
const distinctQuery = `distinct(document("auction.xml")/site/regions/*/item/name)`

// groupSortQueries are the queries whose every group reorder goes through
// the budgeted sort: merge-join side sorts (Q8, under MSJ), order by
// (Q19), distinct and sort.
var groupSortQueries = []struct{ name, text string }{
	{"Q8", xmark.Q8},
	{"Q19", xmark.Q19},
	{"distinct", distinctQuery},
	{"sort", `for $x in document("auction.xml")/site/people/person return sort($x/*)`},
}

// TestMemBudgetSpillsDigitIdentical runs the paper's evaluation queries
// over a generated XMark document under a memory budget small enough to
// spill every group reorder — merge-join side sorts, order by, distinct —
// to runs of sorted positions, and checks the result is digit-identical to
// the unbudgeted run. MemBudget degrades to disk — it must never change an
// answer or abort a query.
func TestMemBudgetSpillsDigitIdentical(t *testing.T) {
	cat, _ := generatedCatalog(0.002, 1)
	dir := t.TempDir()
	queries := []struct {
		name   string
		text   string
		spills bool // a budgeted sort runs (for joins: MSJ only; Q13 has none)
	}{
		{"Q8", xmark.Q8, true},
		{"Q9", xmark.Q9, true},
		{"Q13", xmark.Q13, false},
		{"Q19", xmark.Q19, true},
		{"distinct", distinctQuery, true},
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

// TestSpillFaultFailsCleanly injects a fault at the one spill site: under
// a 1-byte budget with SpillDir naming a regular file, no run file can be
// created. Every budgeted group reorder must then fail with an error that
// wraps the run-creation failure — the merge join's too, whose two side
// sorts fail at once on their two goroutines — without panicking, leaving
// a run file or a side sort running.
func TestSpillFaultFailsCleanly(t *testing.T) {
	cat, _ := generatedCatalog(0.002, 1)
	parent := t.TempDir()
	notDir := filepath.Join(parent, "not-a-dir")
	if err := os.WriteFile(notDir, nil, 0o600); err != nil {
		t.Fatal(err)
	}
	runFiles := func() []string {
		var all []string
		for _, dir := range []string{parent, os.TempDir()} {
			left, err := filepath.Glob(filepath.Join(dir, "dixq-spill-*.run"))
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, left...)
		}
		return all
	}
	before := runFiles()
	for _, tc := range groupSortQueries {
		q := Compile(xq.MustParse(tc.text), Options{})
		state := exitcheck.Take()
		_, err := q.Eval(cat, Options{ForceJoinMode: ModeMSJ, MemBudget: 1, SpillDir: notDir})
		if !errors.Is(err, syscall.ENOTDIR) || !strings.Contains(err.Error(), "engine: create run") {
			t.Errorf("%s: err = %v, want a wrapped run-creation failure", tc.name, err)
		}
		state.Check(t, "", nil)
	}
	if left := runFiles(); !slices.Equal(left, before) {
		t.Fatalf("run files left behind: %v (before: %v)", left, before)
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
// never aborts (tested above), while MaxTuples and the run context's deadline still do, even
// when a memory budget is also set.
func TestAbortBudgetsStillAbortUnderMemBudget(t *testing.T) {
	cat, _ := generatedCatalog(0.01, 1)
	q := Compile(xq.MustParse(xmark.Q8), Options{})
	opts := Options{ForceJoinMode: ModeNLJ, MaxTuples: 10_000, MemBudget: 256, SpillDir: t.TempDir()}
	if _, err := q.Eval(cat, opts); !errors.Is(err, engine.ErrBudgetExceeded) {
		t.Fatalf("MaxTuples err = %v, want budget exceeded", err)
	}
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	opts = Options{ForceJoinMode: ModeNLJ, Context: expired, MemBudget: 256, SpillDir: t.TempDir()}
	if _, err := q.Eval(cat, opts); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline err = %v, want context.DeadlineExceeded", err)
	}
}

// The seed-corpus differential test lives in internal/difftest, where the
// same corpus drives every engine variant through one matrix
// (TestEnginesAgreeOnCorpus).

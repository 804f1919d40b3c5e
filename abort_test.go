package dixq

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"dixq/internal/exitcheck"
	"dixq/internal/obs"
)

// xmarkCatalog holds one generated XMark document under the name the
// XMark queries read.
func xmarkCatalog(sf float64) *Catalog {
	cat := NewCatalog()
	cat.Add("auction.xml", GenerateXMark(sf, 1))
	return cat
}

// TestTimeoutAbortsEveryEngine runs Q8 under a deadline on all four
// engines: each returns ErrBudgetExceeded, and each abort counts once in
// dixq_budget_rejections_total. 1 ms is well inside every engine's Q8 time
// at sf 0.05 (generic-sql, nested loops over SQL, runs its own smaller
// document for seconds); 1 ns expires before the first operator.
func TestTimeoutAbortsEveryEngine(t *testing.T) {
	cat, sqlCat := xmarkCatalog(0.05), xmarkCatalog(0.0005)
	for _, timeout := range []time.Duration{time.Nanosecond, time.Millisecond} {
		for _, eng := range []Engine{MergeJoin, NestedLoop, Interpreter, GenericSQL} {
			c := cat
			if eng == GenericSQL {
				c = sqlCat
			}
			before := obs.BudgetRejections.Value()
			start := time.Now()
			_, err := Run(XMarkQ8, c, &Options{Engine: eng, Timeout: timeout})
			if !errors.Is(err, ErrBudgetExceeded) {
				t.Errorf("%s, timeout %s: err = %v, want ErrBudgetExceeded", eng, timeout, err)
			}
			if n := obs.BudgetRejections.Value() - before; n != 1 {
				t.Errorf("%s, timeout %s: %d budget rejections counted, want 1", eng, timeout, n)
			}
			t.Logf("%s, timeout %s: aborted after %s", eng, timeout, time.Since(start))
		}
	}
}

// TestDeadlineAbortLeavesNothing aborts the DI engines mid-flight while
// they spill every group reorder to disk: the abort must leave no
// merge-join side sort running and no run file behind.
func TestDeadlineAbortLeavesNothing(t *testing.T) {
	cat := xmarkCatalog(0.05)
	for _, eng := range []Engine{MergeJoin, NestedLoop} {
		dir := t.TempDir()
		before := exitcheck.Take()
		_, err := Run(XMarkQ8, cat, &Options{
			Engine: eng, Timeout: time.Millisecond, MemBudget: 1, SpillDir: dir,
		})
		if !errors.Is(err, ErrBudgetExceeded) {
			t.Errorf("%s: err = %v, want ErrBudgetExceeded", eng, err)
		}
		before.Check(t, dir, nil)
	}
}

// TestTimeoutOvershoot pins how late a deadline may land inside one long
// operator: Q8 under DI-NLJ at sf 0.02 spends over a second in single
// embed-outer calls, which poll the run context once per environment, so
// a 20 ms timeout must end the run within 50 ms of the deadline.
func TestTimeoutOvershoot(t *testing.T) {
	const timeout, slack = 20 * time.Millisecond, 50 * time.Millisecond
	cat := xmarkCatalog(0.02)
	start := time.Now()
	_, err := Run(XMarkQ8, cat, &Options{Engine: NestedLoop, Timeout: timeout})
	took := time.Since(start)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if took > timeout+slack {
		t.Fatalf("returned %s after a %s deadline, want within %s", took-timeout, timeout, slack)
	}
	t.Logf("returned %s after the deadline", took-timeout)
}

// TestCancelEveryEngine cancels each engine mid-run: DI-NLJ on Q8 at sf
// 0.02, DI-MSJ on the sf 0.05 document with every group reorder spilling
// under a 256-byte budget, the interpreter on the same
// document and generic-sql on its smaller one. DI-MSJ is cancelled once its
// first spill run appears on disk, so the cancel lands inside a spilling
// sort however fast the host runs; the others are cancelled after a
// sleep. Each run must fail with context.Canceled within 50 ms of the
// cancel, count no budget rejection, and leave nothing behind.
func TestCancelEveryEngine(t *testing.T) {
	const mid, slack = 100 * time.Millisecond, 50 * time.Millisecond
	cat, nljCat, sqlCat := xmarkCatalog(0.05), xmarkCatalog(0.02), xmarkCatalog(0.0005)
	q, err := ParseQuery(XMarkQ8)
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []Engine{MergeJoin, NestedLoop, Interpreter, GenericSQL} {
		c, dir := cat, ""
		opts := &Options{Engine: eng}
		switch eng {
		case MergeJoin:
			dir = t.TempDir()
			opts.MemBudget, opts.SpillDir = 256, dir
		case NestedLoop:
			c = nljCat
		case GenericSQL:
			c = sqlCat
		}
		before, rejections := exitcheck.Take(), obs.BudgetRejections.Value()
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := q.Run(ctx, c, opts)
			done <- err
		}()
		if dir != "" {
			if err := awaitSpillRun(dir, done); err != nil {
				cancel()
				<-done
				t.Fatalf("%s: %v", eng, err)
			}
		} else {
			time.Sleep(mid)
		}
		cancelled := time.Now()
		cancel()
		err := <-done
		took := time.Since(cancelled)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", eng, err)
		}
		if took > slack {
			t.Errorf("%s: returned %s after the cancel, want within %s", eng, took, slack)
		}
		if n := obs.BudgetRejections.Value() - rejections; n != 0 {
			t.Errorf("%s: a cancel counted %d budget rejections", eng, n)
		}
		before.Check(t, dir, nil)
		t.Logf("%s: returned %s after the cancel", eng, took)
	}
}

// awaitSpillRun polls dir until a spill run file appears in it. It fails
// if the run ends first, putting the run's result back on done, or if
// none appears within 10 s.
func awaitSpillRun(dir string, done chan error) error {
	tick := time.NewTicker(100 * time.Microsecond)
	defer tick.Stop()
	giveUp := time.After(10 * time.Second)
	for {
		if runs, _ := filepath.Glob(filepath.Join(dir, "dixq-spill-*.run")); len(runs) > 0 {
			return nil
		}
		select {
		case err := <-done:
			done <- err
			return fmt.Errorf("the run ended (err = %v) before it wrote a spill run", err)
		case <-giveUp:
			return errors.New("no spill run appeared within 10s")
		case <-tick.C:
		}
	}
}

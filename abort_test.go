package dixq

import (
	"errors"
	"os"
	"testing"
	"time"

	"dixq/internal/exec"
	"dixq/internal/obs"
)

// xmarkCatalog holds one generated XMark document under the name the
// XMark queries read.
func xmarkCatalog(sf float64) *Catalog {
	cat := NewCatalog()
	cat.Add("auction.xml", GenerateXMark(sf, 1))
	return cat
}

// TestTimeoutAbortsEveryEngine runs Q8 under a deadline on all five
// engines: each returns ErrBudgetExceeded, and each abort counts once in
// dixq_budget_rejections_total. 1 ms is well inside every engine's Q8 time
// at sf 0.05 (generic-sql, nested loops over SQL, runs its own smaller
// document for seconds); 1 ns expires before the first operator.
func TestTimeoutAbortsEveryEngine(t *testing.T) {
	cat, sqlCat := xmarkCatalog(0.05), xmarkCatalog(0.0005)
	for _, timeout := range []time.Duration{time.Nanosecond, time.Millisecond} {
		for _, eng := range []Engine{CostBased, MergeJoin, NestedLoop, Interpreter, GenericSQL} {
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
// they run parallel and spill every group reorder to disk: the abort must
// give back every worker slot and leave no run file behind.
func TestDeadlineAbortLeavesNothing(t *testing.T) {
	cat := xmarkCatalog(0.05)
	for _, eng := range []Engine{CostBased, MergeJoin, NestedLoop} {
		dir := t.TempDir()
		_, err := Run(XMarkQ8, cat, &Options{
			Engine: eng, Timeout: time.Millisecond, Parallelism: 4, MemBudget: 1, SpillDir: dir,
		})
		if !errors.Is(err, ErrBudgetExceeded) {
			t.Errorf("%s: err = %v, want ErrBudgetExceeded", eng, err)
		}
		if n := exec.InFlight(); n != 0 {
			t.Errorf("%s: %d workers still in flight after the abort", eng, n)
		}
		left, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(left) != 0 {
			t.Errorf("%s: %d files left in the spill directory", eng, len(left))
		}
	}
}

package difftest

import (
	"sync"
	"testing"

	"dixq/internal/core"
	"dixq/internal/exec"
	"dixq/internal/xmark"
	"dixq/internal/xq"
)

// TestConcurrentParallelSpillingRuns is the dedicated -race stress run:
// many goroutines evaluate the benchmark queries concurrently, each merge
// join sorting its two sides as a pair (exec.Pair) under a memory budget
// small enough to force external sort spills, all sharing one spill
// directory. Every result must be digit-identical to the in-memory
// evaluation; no query may have more than one pair in flight, and every
// pair's second goroutine must be gone at the end.
func TestConcurrentParallelSpillingRuns(t *testing.T) {
	exec.ResetHighWater()

	cat, _ := Docs(t, 0.002, 17)
	dir := t.TempDir()
	queries := []string{xmark.Q8, xmark.Q9, xmark.Q13}

	type ref struct {
		q    *core.Query
		want string
	}
	refs := make([]ref, len(queries))
	for i, src := range queries {
		q := core.Compile(xq.MustParse(src), core.Options{})
		rel, err := q.Eval(cat, core.Options{ForceJoinMode: core.ModeMSJ})
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = ref{q: q, want: rel.String()}
	}

	const goroutines = 8
	const rounds = 5
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				ref := refs[(g+r)%len(refs)]
				rel, err := ref.q.Eval(cat, core.Options{
					ForceJoinMode: core.ModeMSJ,
					MemBudget:     256,
					SpillDir:      dir,
				})
				if err != nil {
					errs <- err
					return
				}
				if rel.String() != ref.want {
					t.Errorf("goroutine %d round %d: spilled result diverged", g, r)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if hw := exec.HighWater(); hw < 1 || hw > goroutines {
		t.Errorf("pairs in flight peaked at %d, want 1 to %d (one per query at most)", hw, goroutines)
	}
	if in := exec.InFlight(); in != 0 {
		t.Errorf("%d pair goroutines still running after the stress run", in)
	}
}

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
// many goroutines evaluate the benchmark queries concurrently, each with
// Parallelism > 1 (so pool workers from different queries interleave on
// the shared budget) and a memory budget small enough to force external
// sort spills, sharing one spill directory. Every result must be
// digit-identical to the serial in-memory evaluation, and the worker
// budget must drain completely.
func TestConcurrentParallelSpillingRuns(t *testing.T) {
	// A raised budget makes worker handoff between concurrent queries
	// actually happen on the 1-CPU CI leg too.
	prev := exec.SetLimit(6)
	defer exec.SetLimit(prev)
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
		rel, err := q.Eval(cat, core.Options{ForceJoinMode: core.ModeMSJ, Parallelism: 1})
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
					Parallelism:   4,
					MemBudget:     256,
					SpillDir:      dir,
				})
				if err != nil {
					errs <- err
					return
				}
				if rel.String() != ref.want {
					t.Errorf("goroutine %d round %d: parallel spilled result diverged", g, r)
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
	if hw := exec.HighWater(); hw > 6 {
		t.Errorf("extra workers peaked at %d, over the process budget 6", hw)
	}
	if in := exec.InFlight(); in != 0 {
		t.Errorf("%d worker slots still held after the stress run", in)
	}
}

package interval

import (
	"slices"

	"dixq/internal/exec"
)

// ParallelSortThreshold is the minimum input length for which SortPerm
// splits work across goroutines; below it the parallel setup costs more
// than it saves. It is a variable so tests and benchmarks can force the
// parallel path on small inputs.
var ParallelSortThreshold = 2048

// SortPerm returns a permutation of [0, n) ordering positions by cmp,
// stably: positions comparing equal keep their original relative order.
// With parallelism > 1 and n at or above ParallelSortThreshold the
// positions are sorted in concurrent chunks and pairwise-merged; cmp must
// then be safe for concurrent calls (pure comparators over shared
// read-only data are). The result is identical at any parallelism.
//
// This is the engine's one sort kernel: the budgeted sort behind every
// group reorder (engine.SortUnits) orders every unit and every spilled
// run with it.
func SortPerm(n, parallelism int, cmp func(a, b int) int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	// Index order breaks ties, which both makes the sort stable and keeps
	// the chunk merges deterministic.
	c := func(a, b int) int {
		if v := cmp(a, b); v != 0 {
			return v
		}
		return a - b
	}
	par := exec.Effective(parallelism)
	if par < 2 || n < ParallelSortThreshold {
		slices.SortFunc(order, c)
		return order
	}
	parallelSortPerm(order, c, par)
	return order
}

// parallelSortPerm sorts positions with concurrently sorted chunks
// followed by an exchange repartitioning: sampled splitters cut the key
// space into one region per worker and every region k-way merges
// concurrently (see exchange.go), instead of pairwise merge rounds whose
// final round was one serial merge over the whole input. Chunk boundaries
// and splitters depend only on the input and the budget-clamped
// parallelism (exec.Effective) — never on how many workers a Run call is
// actually granted — so the merged result is bit-identical at any grant,
// and the worker goroutines themselves come from the shared exec pool.
func parallelSortPerm(order []int, cmp func(a, b int) int, parallelism int) {
	chunk := (len(order) + parallelism - 1) / parallelism
	var chunks [][]int
	for lo := 0; lo < len(order); lo += chunk {
		hi := min(lo+chunk, len(order))
		chunks = append(chunks, order[lo:hi])
	}
	exec.Run(len(chunks), parallelism, func(task, worker int) {
		slices.SortFunc(chunks[task], cmp)
	})
	merged := make([]int, len(order))
	ExchangeMerge(merged, chunks, parallelism, cmp)
	copy(order, merged)
}

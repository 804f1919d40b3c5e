package interval

import "slices"

// SortPerm returns a permutation of [0, n) ordering positions by cmp,
// stably: positions comparing equal keep their original relative order.
//
// This is the engine's one sort kernel: the budgeted sort behind every
// group reorder (engine.SortUnits) orders every unit and every spilled
// run with it.
func SortPerm(n int, cmp func(a, b int) int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	// Index order breaks ties, which makes the sort stable.
	slices.SortFunc(order, func(a, b int) int {
		if v := cmp(a, b); v != 0 {
			return v
		}
		return a - b
	})
	return order
}

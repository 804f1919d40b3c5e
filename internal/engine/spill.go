// One budgeted sort. Every group reorder of the engine — the structural
// sort, distinct, order by and both sides of the merge join — builds its
// sort units, asks SortUnits for their stable permutation and emits by it.
// The permutation is computed in memory with interval.SortPerm; under a
// runtime memory budget a sort whose units outgrow the budget goes through
// the external merge sorter instead, whose runs carry the units in the
// streaming DIXQR1 encoding. Both paths apply the same comparator — to the
// caller's units in memory, to the re-decoded records on disk — and break
// ties by unit position, so the permutation, and every relation emitted
// from it, is identical at any budget.
package engine

import (
	"dixq/internal/extsort"
	"dixq/internal/interval"
	"dixq/internal/obs"
)

// SpillConfig bounds the memory of the budgeted sorts.
type SpillConfig struct {
	// MaxBytes is the accounted in-memory ceiling per sort; sorts whose
	// units' footprint stays under it run in memory. <= 0 means unbounded.
	MaxBytes int64
	// Dir is the spill directory; empty means the OS temp directory.
	Dir string
}

// SpillStats reports what the budgeted sorts wrote to disk.
type SpillStats struct {
	// Runs is the number of external-sort runs written.
	Runs int64
	// Bytes is the accounted footprint of the spilled records.
	Bytes int64
}

// UnitCompare orders two sort units, each an optional key (nil for the
// unkeyed units of the tree sorts) and a tuple group.
type UnitCompare func(ka interval.Key, a []interval.Tuple, kb interval.Key, b []interval.Tuple) int

// SortUnits returns the stable permutation of [0, len(units)) ordering the
// sort units — keys[i] (keys may be nil) with the tuple group units[i] —
// by cmp, ties broken by position. When a budget is set (spill non-nil
// with MaxBytes > 0) and the units' accounted footprint exceeds it, the
// sort runs through extsort, spilling runs to spill.Dir, and the disk
// activity accumulates into stats; otherwise the permutation is computed in
// memory on up to parallelism workers. A budgeted sort counts its
// footprint into dixq_sort_bytes_total on either path.
func SortUnits(keys []interval.Key, units [][]interval.Tuple, cmp UnitCompare, parallelism int,
	spill *SpillConfig, stats *SpillStats) ([]int, error) {

	key := func(i int) interval.Key {
		if keys == nil {
			return nil
		}
		return keys[i]
	}
	inMemory := func() []int {
		return interval.SortPerm(len(units), parallelism, func(a, b int) int {
			return cmp(key(a), units[a], key(b), units[b])
		})
	}
	if spill == nil || spill.MaxBytes <= 0 {
		return inMemory(), nil
	}
	foot := int64(0)
	for i, u := range units {
		foot += int64(len(key(i)))*8 + interval.TuplesFootprint(u)
	}
	if foot <= spill.MaxBytes {
		// Spilled sorts account their footprint inside extsort.
		obs.SortedBytes.Add(foot)
		return inMemory(), nil
	}
	sorter := extsort.New(
		extsort.Config{MaxBytes: spill.MaxBytes, Dir: spill.Dir, Parallelism: parallelism},
		func(a, b *extsort.Record) int { return cmp(a.Key, a.Tuples, b.Key, b.Tuples) },
	)
	defer sorter.Close()
	for i, u := range units {
		if err := sorter.Add(extsort.Record{Ord: int64(i), Key: key(i), Tuples: u}); err != nil {
			return nil, err
		}
	}
	stats.Runs += int64(sorter.Runs())
	stats.Bytes += sorter.SpilledBytes()
	order := make([]int, 0, len(units))
	err := sorter.Merge(func(r *extsort.Record) error {
		order = append(order, int(r.Ord))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return order, nil
}

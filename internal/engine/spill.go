// Spill-aware structural sort. SortTreesP holds every environment group
// and its permutation in memory; under a runtime memory budget the sort of
// a large group instead goes through the external merge sorter, whose runs
// carry the trees in the streaming DIXQR1 encoding. The emitted relation
// is digit-identical either way: both paths order trees by
// (CompareForests, original position) and rebuild them through the same
// Builder renumbering, and the disk round-trip preserves every digit.
package engine

import (
	"dixq/internal/extsort"
	"dixq/internal/interval"
	"dixq/internal/obs"
)

// SpillConfig bounds the memory of the spill-capable sorts.
type SpillConfig struct {
	// MaxBytes is the accounted in-memory ceiling per sort; groups whose
	// footprint stays under it sort in memory as before.
	MaxBytes int64
	// Dir is the spill directory; empty means the OS temp directory.
	Dir string
}

// SpillStats reports what a spill-capable operator wrote to disk.
type SpillStats struct {
	// Runs is the number of external-sort runs written.
	Runs int64
	// Bytes is the accounted footprint of the spilled records.
	Bytes int64
}

func (s *SpillStats) add(sorter *extsort.Sorter) {
	s.Runs += int64(sorter.Runs())
	s.Bytes += sorter.SpilledBytes()
}

// SortTreesSpill is SortTreesP under a memory budget: environment groups
// whose accounted footprint exceeds cfg.MaxBytes are sorted externally,
// spilling runs to cfg.Dir. Output is identical to SortTreesP at any
// budget; the stats report how much was spilled.
func SortTreesSpill(rel *interval.Relation, depth, parallelism int, cfg SpillConfig) (*interval.Relation, SpillStats, error) {
	var stats SpillStats
	b := interval.NewBuilder(depth+1+localWidth(rel, depth), len(rel.Tuples))
	var groupErr error
	forEachGroup(rel.Tuples, depth, func(g []interval.Tuple) {
		if groupErr != nil {
			return
		}
		prefix := g[0].L
		if fp := interval.TuplesFootprint(g); cfg.MaxBytes <= 0 || fp <= cfg.MaxBytes {
			// The spilled path accounts its footprint inside extsort; the
			// in-memory path charges the already-computed group footprint
			// here so dixq_sort_bytes_total covers both.
			obs.SortedBytes.Add(fp)
			ranges := treeRanges(g)
			order := stableSortRanges(g, ranges, parallelism)
			for j, idx := range order {
				emitTree(b, prefix, depth, int64(j), g[ranges[idx][0]:ranges[idx][1]])
			}
			return
		}
		sorter := extsort.New(
			extsort.Config{MaxBytes: cfg.MaxBytes, Dir: cfg.Dir, Parallelism: parallelism},
			func(a, b *extsort.Record) int { return CompareForests(a.Tuples, b.Tuples) },
		)
		defer sorter.Close()
		var max interval.Key
		haveMax := false
		ord := int64(0)
		var tree []interval.Tuple
		flushTree := func() {
			if groupErr != nil || tree == nil {
				return
			}
			if err := sorter.Add(extsort.Record{Ord: ord, Tuples: tree}); err != nil {
				groupErr = err
				return
			}
			ord++
		}
		for _, t := range g {
			if !haveMax || interval.Compare(t.L, max) > 0 {
				flushTree()
				max = t.R
				haveMax = true
				tree = nil
			}
			tree = append(tree, t)
		}
		flushTree()
		if groupErr != nil {
			return
		}
		stats.add(sorter)
		pos := int64(0)
		groupErr = sorter.Merge(func(r *extsort.Record) error {
			emitTree(b, prefix, depth, pos, r.Tuples)
			pos++
			return nil
		})
	})
	if groupErr != nil {
		return nil, stats, groupErr
	}
	return b.Relation(), stats, nil
}

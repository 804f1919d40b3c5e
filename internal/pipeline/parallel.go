// Morsel-driven parallel execution of fused path chains. A fused chain's
// state machines carry state from row to row, so its input cannot be cut
// blindly. This file computes the input positions at which every stage's
// state machine provably behaves as if freshly reset — the safe split
// points — groups the segments between them into morsels, and runs the
// morsels through the shared exec worker pool, each worker recording its
// morsel's survivors as runs in a sequence-numbered result slot. Merging
// the slots' runs in morsel order reproduces the serial output
// tuple-for-tuple, and it is materialized once.
//
// Why the split points are safe: keys are compared digit-lexicographically,
// and the chain input arrives in L-key order.
//
//   - A top-level tree boundary is a position whose L exceeds every R seen
//     before it. The roots/children/select/seltext machines only consult
//     the running "R of the current top-level tree" (max); at such a
//     position the serial machine would open a new tree regardless of its
//     carried state, so a freshly reset machine makes identical decisions
//     from there on. Filtering by earlier stages preserves the dominance
//     property (survivors are subsequences), so the argument holds at every
//     position of the chain, not just the first stage.
//   - An environment boundary (the depth-d prefix of L changes, d >= 1) is
//     the reset point of the head/tail machines — and it is also a
//     top-level tree boundary, because the differing prefix digit makes
//     every key of the new environment exceed every key (including R) of
//     the old ones. So chains containing head/tail stages split at
//     environment boundaries, and chains without them split at the more
//     frequent tree boundaries.
//
// A head/tail stage at depth 0 has a single environment and therefore no
// safe split points; such chains stay serial.
package pipeline

import (
	"dixq/internal/exec"
	"dixq/internal/interval"
	"dixq/internal/obs"
)

// The morsel sizing. It depends only on the input size — never on the
// worker count — so the partitioning (and with it every per-morsel
// statistic) is deterministic at any parallelism.
const (
	// minParallelRows is the smallest chain input worth splitting.
	minParallelRows = 512
	// minMorselRows floors the morsel size: per-morsel overhead (fresh
	// stages, a result slot, a task handoff) is paid however few rows the
	// morsel holds.
	minMorselRows = 1024
	// maxMorselsPerChain caps how many morsels one chain is split into.
	maxMorselsPerChain = 64
)

// ParallelChainResult is the outcome of a parallel chain run.
type ParallelChainResult struct {
	// Rel is the chain output, identical to the serial run.
	Rel *interval.Relation
	// Rows holds the per-stage survivor counts summed across all morsels;
	// Rows[i] belongs to protos[i], and the last entry counts the chain's
	// output.
	Rows []int
	// Workers is how many workers actually participated (>= 1; the process
	// budget may grant fewer than requested).
	Workers int
	// Morsels is how many morsels the input was split into.
	Morsels int
}

// morselBounds packs the segments between the safe split positions of
// rel for a chain with the given stages — the positions at which every
// stage's state machine resets — into morsels of at least target rows
// (except possibly the last), returning the morsel start positions plus
// the final end position n. The split positions are found and packed in
// one pass, so only the morsel bounds are stored. ok is false when the
// chain admits no safe splits (a head/tail stage at depth 0).
func morselBounds(rel *interval.Relation, protos []Stage, target int) (bounds []int, ok bool) {
	envDepth := 0
	for _, s := range protos {
		if s.kind == stageHead || s.kind == stageTail {
			if s.depth == 0 {
				return nil, false
			}
			if s.depth > envDepth {
				envDepth = s.depth
			}
		}
	}
	n := len(rel.Tuples)
	bounds = append(make([]int, 0, n/target+2), 0)
	split := func(i int) {
		if i-bounds[len(bounds)-1] >= target {
			bounds = append(bounds, i)
		}
	}
	if envDepth > 0 {
		for i := 1; i < n; i++ {
			if rel.Tuples[i].L.ComparePrefix(rel.Tuples[i-1].L, envDepth) != 0 {
				split(i)
			}
		}
		return append(bounds, n), true
	}
	maxR := rel.Tuples[0].R
	for i := 1; i < n; i++ {
		if interval.Compare(rel.Tuples[i].L, maxR) > 0 {
			split(i)
		}
		if interval.Compare(rel.Tuples[i].R, maxR) > 0 {
			maxR = rel.Tuples[i].R
		}
	}
	return append(bounds, n), true
}

// RunChainParallel executes the fused stage chain over rel with up to
// parallelism workers and returns the output, which is tuple-for-tuple
// identical to the serial Filter at any parallelism and any worker grant.
// ok is false when the chain is not worth (or not safe) to parallelize —
// too few rows, too few safe split points, or a depth-0 head/tail stage —
// and the caller should run Filter.
func RunChainParallel(rel *interval.Relation, protos []Stage, parallelism int) (ParallelChainResult, bool) {
	var res ParallelChainResult
	parallelism = exec.Effective(parallelism)
	n := len(rel.Tuples)
	if parallelism < 2 || len(protos) == 0 || n < minParallelRows {
		return res, false
	}
	target := max(minMorselRows, (n+maxMorselsPerChain-1)/maxMorselsPerChain)
	morsels, ok := morselBounds(rel, protos, target)
	nm := len(morsels) - 1
	if !ok || nm < 2 {
		return res, false
	}

	// Each task filters one morsel with its own fresh stages into its own
	// result slot and survivor counts; worker w reuses stages[w·k:(w+1)·k].
	k := len(protos)
	outs := make([]interval.Runs, nm)
	rows := make([]int, nm*k)
	stages := make([]Stage, min(parallelism, nm)*k)
	res.Workers = exec.Run(nm, parallelism, func(task, worker int) {
		st := stages[worker*k : (worker+1)*k]
		copy(st, protos)
		morsel := [][2]int32{{int32(morsels[task]), int32(morsels[task+1])}}
		outs[task] = Filter(rel, morsel, st, rows[task*k:(task+1)*k])
	})
	res.Morsels = nm

	// Merging the morsels' runs joins a run that crosses a morsel boundary,
	// so the output is materialized once, and is a view of rel when the
	// survivors are one run.
	var runs interval.Runs
	for _, o := range outs {
		for _, r := range o {
			runs.Add(int(r[0]), int(r[1]))
		}
	}
	res.Rel = &interval.Relation{Tuples: runs.Of(rel.Tuples)}
	res.Rows = make([]int, k)
	for task := 0; task < nm; task++ {
		for i, r := range rows[task*k : (task+1)*k] {
			res.Rows[i] += r
		}
	}
	obs.ParallelChains.Inc()
	return res, true
}

// Morsel-driven parallel execution of fused path chains. The batch chunks
// of batch.go are the natural parallelism unit, but a fused chain's state
// machines carry state across chunk boundaries, so chunks cannot be handed
// to workers blindly. This file computes the input positions at which every
// stage's state machine provably behaves as if freshly reset — the safe
// split points — groups the segments between them into morsels, and runs
// the morsels through the shared exec worker pool, each worker draining its
// morsels through a worker-owned chunk buffer into sequence-numbered result
// slots. Concatenating the slots in morsel order reproduces the serial
// output tuple-for-tuple.
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

// maxMorselsPerChain caps how many morsels one chain is split into. The
// morsel target size max(morselBatches*batchSize, minMorselRows,
// n/maxMorselsPerChain) depends only on the input size and the batch size
// — never on the worker count — so the partitioning (and with it every
// per-morsel statistic) is deterministic at any parallelism.
const maxMorselsPerChain = 64

// morselBatches is the minimum morsel size in batches. Per-morsel overhead
// (stage resets, source re-init, a result slot) is paid regardless of how
// full the morsel is, so a morsel holds several chunks' worth of rows —
// single-batch morsels spent a measurable share of their time on setup.
const morselBatches = 4

// minMorselRows floors the morsel target in rows, independent of the
// batch size: at small batch sizes morselBatches*batchSize alone would
// produce morsels of a few rows each, and the per-morsel setup would
// dominate the work. Like the rest of the sizing it depends only on the
// input and the configuration, so partitioning stays deterministic.
const minMorselRows = 1024

// ParallelChainResult is the outcome of a parallel chain run.
type ParallelChainResult struct {
	// Rel is the materialized chain output, identical to the serial run.
	Rel *interval.Relation
	// Stages holds the per-stage actuals summed across all morsels;
	// Stages[i] corresponds to protos[i], and the last entry describes the
	// chain's output chunks.
	Stages []StageStat
	// Workers is how many workers actually participated (>= 1; the process
	// budget may grant fewer than requested).
	Workers int
	// Morsels is how many morsels the input was split into.
	Morsels int
}

// chainSplitPoints returns the safe split positions of rel for a chain
// with the given stages: the starts of the segments between which every
// stage's state machine resets. ok is false when the chain admits no safe
// splits (a head/tail stage at depth 0).
func chainSplitPoints(rel *interval.Relation, protos []Stage) (starts []int, ok bool) {
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
	starts = append(starts, 0)
	if envDepth > 0 {
		for i := 1; i < n; i++ {
			if rel.Tuples[i].L.ComparePrefix(rel.Tuples[i-1].L, envDepth) != 0 {
				starts = append(starts, i)
			}
		}
		return starts, true
	}
	maxR := rel.Tuples[0].R
	for i := 1; i < n; i++ {
		if interval.Compare(rel.Tuples[i].L, maxR) > 0 {
			starts = append(starts, i)
		}
		if interval.Compare(rel.Tuples[i].R, maxR) > 0 {
			maxR = rel.Tuples[i].R
		}
	}
	return starts, true
}

// groupMorsels packs boundary-delimited segments into morsels of at least
// target rows (except possibly the last), returning the morsel start
// positions plus the final end position n.
func groupMorsels(starts []int, n, target int) []int {
	morsels := []int{0}
	last := 0
	for _, s := range starts[1:] {
		if s-last >= target {
			morsels = append(morsels, s)
			last = s
		}
	}
	return append(morsels, n)
}

// chainWorker is one worker's private execution state: a chunk buffer,
// a stage list, and the source/chain scratch, reused across the morsels
// the worker pulls — and, via workerScratch, across runs.
type chainWorker struct {
	chunk  interval.Flat
	stages []Stage
	src    RelationBatches
	chain  Chain
}

// workerScratch recycles chainWorker scratch (chunk buffers, stage lists)
// across RunChainParallel calls through the exec pool's generic per-worker
// scratch, so steady-state parallel runs stop paying per-run worker-state
// allocations.
var workerScratch = exec.NewScratch(func() *chainWorker { return new(chainWorker) })

// prepare readies a pooled worker for a run over a chain of nStages
// stages. The chain is bound once per run to the worker's own source and
// stage list — both are re-inited in place per morsel — so its per-stage
// stats accumulate across all the morsels the worker pulls.
func (w *chainWorker) prepare(nStages int) {
	if len(w.stages) != nStages {
		w.stages = make([]Stage, nStages)
	}
	w.chain.Init(&w.src, w.stages)
}

// reset readies the worker's stage list for a fresh morsel.
func (w *chainWorker) reset(protos []Stage) {
	for i := range protos {
		w.stages[i].Reuse(protos[i])
	}
}

// RunChainParallel executes the fused stage chain over rel with up to
// parallelism workers and returns the materialized output, which is
// tuple-for-tuple identical to the serial chain at any parallelism and
// any worker grant. ok is false when the chain is not worth (or not safe
// to) parallelize — too few rows, too few safe split points, or a
// depth-0 head/tail stage — and the caller should run the serial path.
func RunChainParallel(rel *interval.Relation, protos []Stage, batchSize, parallelism int) (ParallelChainResult, bool) {
	var res ParallelChainResult
	parallelism = exec.Effective(parallelism)
	if parallelism < 2 || len(protos) == 0 {
		return res, false
	}
	size := batchSize
	if size <= 0 {
		size = DefaultBatchSize
	}
	n := len(rel.Tuples)
	if n < 2*size {
		return res, false
	}
	starts, ok := chainSplitPoints(rel, protos)
	if !ok || len(starts) < 2 {
		return res, false
	}
	target := max(morselBatches*size, minMorselRows)
	if t := (n + maxMorselsPerChain - 1) / maxMorselsPerChain; t > target {
		target = t
	}
	morsels := groupMorsels(starts, n, target)
	nm := len(morsels) - 1
	if nm < 2 {
		return res, false
	}

	outs := make([][]interval.Tuple, nm)
	// Memoize the chunk stride here, so the workers' per-morsel source
	// setup reads it instead of racing to scan rel.
	rel.MaxKeyLen()
	workers := workerScratch.Acquire(min(parallelism, nm))
	for i := range workers {
		workers[i].prepare(len(protos))
	}
	res.Workers = exec.Run(nm, parallelism, func(task, worker int) {
		w := workers[worker]
		w.reset(protos)
		w.src.InitRange(rel, morsels[task], morsels[task+1], size, &w.chunk)
		outs[task] = MaterializeBatches(&w.chain, rel).Tuples
	})
	res.Morsels = nm

	total := 0
	for _, o := range outs {
		total += len(o)
	}
	tuples := make([]interval.Tuple, 0, total)
	for _, o := range outs {
		tuples = append(tuples, o...)
	}
	res.Rel = &interval.Relation{Tuples: tuples}
	res.Stages = make([]StageStat, len(protos))
	for _, w := range workers {
		for j, st := range w.chain.Stats() {
			res.Stages[j].Rows += st.Rows
			res.Stages[j].Batches += st.Batches
			res.Stages[j].Bytes += st.Bytes
		}
	}
	workerScratch.Release(workers)
	obs.ParallelChains.Inc()
	return res, true
}

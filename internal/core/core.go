// Package core implements the paper's contribution: the compositional
// translation of core XQuery expressions (Definition 2.2) into query plans
// over the dynamic interval encoding, executed by the engine package's
// special-purpose operators.
//
// Two plan modes mirror Section 6:
//
//   - ModeNLJ is the literal translation of Section 4.2: every for-loop
//     extends the environment sequence by embedding the outer environment
//     into each iteration (EmbedOuter), so correlated nested loops cost the
//     product of the loop cardinalities.
//   - ModeMSJ additionally applies the Section 5 rewrite: a nested for-loop
//     whose domain is loop-invariant and whose condition contains a
//     separable equality is evaluated independently and joined to the outer
//     environments with a structural sort + merge join, after which the
//     matching environments are rebuilt in document order.
//
// Both modes produce byte-identical output relations; the difference is
// purely algorithmic, which is what the paper's Q8/Q9 experiments isolate.
// A plan compiled with statistics (Options.DocStats) in either mode has
// every node annotated by the statistics-fed estimator of package opt;
// the estimates never change the plan.
package core

import (
	"context"
	"sync"
	"time"

	"dixq/internal/index"
	"dixq/internal/interval"
	"dixq/internal/plan"
	"dixq/internal/xmltree"
	"dixq/internal/xq"
)

// Mode selects the join strategy, named after the paper's plan variants.
type Mode int

const (
	// ModeMSJ (the default, DI-MSJ) compiles every eligible loop to the
	// decorrelated merge-sort join. Both modes produce digit-identical
	// results.
	ModeMSJ Mode = iota
	// ModeNLJ forces the literal nested-loop translation (DI-NLJ).
	ModeNLJ
)

func (m Mode) String() string {
	switch m {
	case ModeMSJ:
		return "DI-MSJ"
	case ModeNLJ:
		return "DI-NLJ"
	default:
		return "invalid"
	}
}

// Options configures evaluation.
type Options struct {
	// ForceJoinMode picks the join strategy of every loop: ModeMSJ (the
	// zero value) compiles every eligible loop to the merge join, ModeNLJ
	// none.
	ForceJoinMode Mode
	// MaxTuples aborts evaluation once the environment-embedding operators
	// have produced this many tuples (0 = unlimited) — the analogue of the
	// paper's experiment cutoffs.
	MaxTuples int64
	// Context, when non-nil, stops the run once it is done: Eval fails
	// with its error. It is polled at every operator entry, per environment
	// in EmbedOuter and per record of a spilling sort.
	Context context.Context
	// Stats, when non-nil, receives the run's counters and the per-phase
	// timing breakdown of Figure 10, summed from the per-node actuals
	// (which it also carries, see Stats.Run).
	Stats *Stats
	// NoRewrites disables the hoisting and predicate pull-up rewrites,
	// yielding the fully literal translation (used by tests).
	NoRewrites bool
	// MemBudget bounds the accounted in-memory footprint of every group
	// reorder (sort, distinct, order by, the merge-join side sorts), in
	// bytes; inputs over the budget are
	// sorted in batches, spilling runs of sorted positions to SpillDir
	// (the units themselves stay in memory; 0 = unbounded, never
	// spill). Unlike MaxTuples, exceeding it never aborts the query — it
	// degrades to disk.
	MemBudget int64
	// SpillDir is where a budgeted sort writes its spill runs (files of
	// sorted positions); empty means the OS temp directory.
	SpillDir string
	// Analyze, when non-nil, requests the analyze report — the input of
	// the analyze form of Explain. Every run records the per-plan-node
	// actuals (calls, rows, exclusive wall time, spilled runs); with
	// Analyze set they land in the caller's RunStats and each node
	// additionally gets its allocated-byte delta, the one reading too
	// expensive to take always (a stop-the-world memory-statistics read
	// per operator boundary). The execution itself is the same either way.
	// The caller passes an empty RunStats; Eval sizes it to the executed
	// plan.
	Analyze *plan.RunStats
	// Indexes, when non-nil, lets the compiler resolve depth-0 path chains
	// against the documents' structural indexes: chains over indexed paths
	// become range reads, chains over absent paths collapse to empty plans
	// (see rewrite.go). The indexes must be built over the very relations
	// of the evaluation catalog: a seek whose index was built over another
	// relation fails the run with an error, so results are digit-identical
	// with and without indexes.
	Indexes *index.Set
	// DocStats, when non-nil, has the estimator annotate every plan node,
	// in either mode, with a row estimate fed by the indexes' class
	// annotations (counts, subtree rows, distinct texts); nil leaves the
	// plan unestimated. Scans read this set's classes; a seek reads the
	// classes of the Indexes set it was compiled with, and needs only its
	// document here (the public API passes one set as both). Estimates
	// never change the plan; a document the set lacks is nominal-sized.
	// Sets are immutable, so a plan memoized against one set stays valid.
	DocStats *index.Set
}

// Stats is the per-phase cost breakdown reported in Figure 10 of the
// paper, plus counters describing the chosen join strategies. The three
// phase times are the run's exclusive per-node times summed by each node's
// static plan.Phase, so after Eval Total() is the execution's wall time.
type Stats struct {
	// Paths is time spent in path-extraction operators (selection,
	// children, text/data projection).
	Paths time.Duration
	// Join is time spent in environment machinery: loop entry, outer
	// embedding, condition evaluation, filtering, and merge joins.
	Join time.Duration
	// Construction is time spent building results: element construction,
	// concatenation, counting, reordering, and final decoding.
	Construction time.Duration
	// Run holds the per-plan-node actuals of the latest evaluation, the
	// source the phase times were summed from; plan.Operators flattens it
	// into the operator table.
	Run *plan.RunStats

	// MergeJoins counts for-loops evaluated by decorrelated merge join.
	MergeJoins int
	// NestedLoops counts for-loops evaluated by the literal translation.
	NestedLoops int
	// EmbeddedTuples counts tuples produced by outer-environment
	// embedding, the quadratic cost center of DI-NLJ.
	EmbeddedTuples int64
	// SpilledRuns counts spill runs written to disk under
	// Options.MemBudget (0 when everything fit in memory).
	SpilledRuns int64
	// SpilledBytes is the accounted footprint of the spilled records.
	SpilledBytes int64
}

// Total returns the summed phase times.
func (s *Stats) Total() time.Duration { return s.Paths + s.Join + s.Construction }

// Catalog maps document names to their interval encodings.
type Catalog map[string]*interval.Relation

// EncodeCatalog builds a Catalog from parsed documents.
func EncodeCatalog(docs map[string]xmltree.Forest) Catalog {
	out := make(Catalog, len(docs))
	for name, f := range docs {
		out[name] = interval.Encode(f)
	}
	return out
}

// Widths returns each document's encoding width: 2·|rel|, the endpoint
// bound of the DFS-counter encoding that the width analysis of Section 4
// and the SQL translation both start from.
func (c Catalog) Widths() map[string]int64 {
	out := make(map[string]int64, len(c))
	for name, rel := range c {
		out[name] = int64(2 * rel.Len())
	}
	return out
}

// Query is a compiled core expression ready for evaluation.
type Query struct {
	// Expr is the (possibly rewritten) core expression that is evaluated.
	Expr xq.Expr
	// Original is the expression as parsed, before rewrites.
	Original xq.Expr

	// plans memoizes the physical plans per variant; compiled plans are
	// immutable, so concurrent evaluations share them.
	mu    sync.Mutex
	plans map[planVariant]*plan.Node
}

// planVariant keys the memoized plans: the join mode changes loop
// strategies, an index set changes the access paths, and a statistics set
// changes the estimates. Both sets are immutable (a catalog
// publishes new ones with each version), so their pointers identify them.
type planVariant struct {
	mode    Mode
	indexes *index.Set
	stats   *index.Set
}

func variantKey(opts Options) planVariant {
	return planVariant{mode: opts.ForceJoinMode, indexes: opts.Indexes, stats: opts.DocStats}
}

// Plan returns the physical plan the query executes under the given
// options — the same tree Eval runs, so Explain cannot diverge from the
// execution. The returned plan is immutable and shared.
func (q *Query) Plan(opts Options) *plan.Node {
	key := variantKey(opts)
	q.mu.Lock()
	defer q.mu.Unlock()
	if p, ok := q.plans[key]; ok {
		return p
	}
	p := buildPlan(q.Expr, opts)
	if q.plans == nil {
		q.plans = map[planVariant]*plan.Node{}
	}
	q.plans[key] = p
	return p
}

// Compile prepares a core expression for evaluation, applying the
// semantics-preserving rewrites (loop-invariant hoisting and join-predicate
// pull-up) unless opts.NoRewrites is set.
func Compile(e xq.Expr, opts Options) *Query {
	q := &Query{Expr: e, Original: e}
	if !opts.NoRewrites {
		q.Expr = PullUpJoinPredicates(HoistInvariants(e))
	}
	return q
}

// Eval compiles the query to its physical plan (memoized per variant)
// and executes it against a catalog, returning the result encoding.
func (q *Query) Eval(cat Catalog, opts Options) (*interval.Relation, error) {
	p := q.Plan(opts)
	ev := newEvaluator(cat, opts, p)
	tab, err := ev.exec(p, ev.rootEnv())
	if st := opts.Stats; st != nil {
		paths, join, construction := ev.run.PhaseTimes(p)
		st.Paths += paths
		st.Join += join
		st.Construction += construction
		st.Run = ev.run
	}
	if err != nil {
		return nil, err
	}
	return tab.rel, nil
}

// ExplainAnalyze executes the query and renders the executed plan
// annotated with per-operator actuals, returning the rendering and the
// raw stats (exclusive times, so their sum is the execution total).
func (q *Query) ExplainAnalyze(cat Catalog, opts Options) (string, *plan.RunStats, error) {
	rs := &plan.RunStats{}
	opts.Analyze = rs
	if _, err := q.Eval(cat, opts); err != nil {
		return "", nil, err
	}
	return q.Plan(opts).TreeWithStats(rs), rs, nil
}

// Run parses, compiles and evaluates a query in one step.
func Run(query string, cat Catalog, opts Options) (*interval.Relation, error) {
	e, err := xq.Parse(query)
	if err != nil {
		return nil, err
	}
	return Compile(e, opts).Eval(cat, opts)
}

package core

import (
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"

	"dixq/internal/engine"
	"dixq/internal/exec"
	"dixq/internal/interval"
	"dixq/internal/obs"
	"dixq/internal/pipeline"
	"dixq/internal/plan"
)

// table is a translated expression's relation plus its local width: the
// number of key digits that encode positions within one environment. The
// full key length of a tuple is the owning environment's depth plus local.
//
// Widths are always taken from the runtime tables, never from the plan's
// static Digits annotations: relations that passed through package update
// can carry wider keys than a freshly encoded document, so the runtime
// arithmetic must follow the data.
type table struct {
	rel   *interval.Relation
	local int
}

// binding records the table a variable is bound to and the environment
// depth at which it was built. Using a binding at a greater depth embeds
// it into the finer environments on demand.
type binding struct {
	tab   *table
	depth int
}

// env is a node in the chain of dynamic-interval environments built while
// executing the plan: a loop extends the depth, a filter narrows the
// index, a let adds a binding.
type env struct {
	parent *env
	depth  int
	index  engine.Index
	vars   map[string]binding
	// embedCache memoizes on-demand embeddings of outer bindings into this
	// environment.
	embedCache map[string]*table
}

func (e *env) lookup(name string) (binding, bool) {
	b, ok := e.vars[name]
	return b, ok
}

// initial reports whether e is the environment evaluation starts in:
// depth 0 with its single environment still present (a where clause at
// depth 0 can drop it).
func (e *env) initial() bool { return e.depth == 0 && len(e.index) == 1 }

func (e *env) child(depth int, index engine.Index) *env {
	vars := make(map[string]binding, len(e.vars)+1)
	for k, v := range e.vars {
		vars[k] = v
	}
	return &env{parent: e, depth: depth, index: index, vars: vars}
}

type evaluator struct {
	docs   Catalog
	opts   Options
	stats  *Stats
	budget *engine.Budget
	// run holds the per-plan-node actuals — the evaluation's one accounting,
	// always on; the phase Stats and the operator table are derived from
	// it. cur is the node currently being charged (-1 outside the plan) and
	// start when its current slice began: entering a node charges the
	// elapsed slice to the node being left, so the per-node times are
	// exclusive and sum to the execution's wall time.
	run   *plan.RunStats
	cur   int
	start time.Time
	// allocs is set when the caller asked for the analyze report
	// (Options.Analyze): every node switch then also reads the allocation
	// counter — a stop-the-world read, the only expensive measurement —
	// and alloc holds the previous reading.
	allocs bool
	alloc  uint64
	// spill carries the memory budget of the group reorders (sort,
	// distinct, order by, the merge-join side sorts); nil when
	// Options.MemBudget is unset (everything stays in memory).
	spill *engine.SpillConfig
	// stages and rows are the scratch of the fused path chains: the stage
	// list and per-stage survivor counts, rebuilt in place for each chain
	// (chains run one after another and finish before the next starts).
	stages []pipeline.Stage
	rows   []int
}

// newEvaluator readies an evaluation of plan p: the per-node stats block
// is the caller's (Options.Analyze, which also turns the allocation
// readings on) or a fresh one, sized to the plan either way.
func newEvaluator(cat Catalog, opts Options, p *plan.Node) *evaluator {
	// Resolve the Parallelism knob once: <= 0 selects the GOMAXPROCS
	// default, 1 keeps evaluation single-threaded, larger values bound the
	// query's workers. Everything downstream sees the resolved value.
	opts.Parallelism = exec.Resolve(opts.Parallelism)
	ev := &evaluator{docs: cat, opts: opts, stats: opts.Stats, run: opts.Analyze, allocs: opts.Analyze != nil, cur: -1}
	if ev.stats == nil {
		ev.stats = &Stats{}
	}
	if ev.run == nil {
		ev.run = &plan.RunStats{}
	}
	if need := plan.MaxID(p) + 1; len(ev.run.Nodes) < need {
		ev.run.Nodes = make([]plan.NodeStats, need)
	}
	if opts.MaxTuples > 0 || opts.Timeout > 0 {
		ev.budget = &engine.Budget{MaxTuples: opts.MaxTuples}
		if opts.Timeout > 0 {
			ev.budget.Deadline = time.Now().Add(opts.Timeout)
		}
	}
	if opts.MemBudget > 0 {
		ev.spill = &engine.SpillConfig{MaxBytes: opts.MemBudget, Dir: opts.SpillDir}
	}
	return ev
}

// node returns the stats slot of a plan node.
func (ev *evaluator) node(n *plan.Node) *plan.NodeStats { return &ev.run.Nodes[n.ID] }

// noteSpill accumulates a spill-capable operator's disk activity into the
// run's stats and the plan node currently executing.
func (ev *evaluator) noteSpill(st engine.SpillStats) {
	if st.Runs == 0 {
		return
	}
	ev.stats.SpilledRuns += st.Runs
	ev.stats.SpilledBytes += st.Bytes
	ev.run.Nodes[ev.cur].Spilled += st.Runs
}

// sorted books a group reorder's spill activity (noteSpill) and wraps its
// output relation as a table of the given local width.
func (ev *evaluator) sorted(local int) func(*interval.Relation, engine.SpillStats, error) (*table, error) {
	return func(rel *interval.Relation, st engine.SpillStats, err error) (*table, error) {
		if err != nil {
			return nil, err
		}
		ev.noteSpill(st)
		return &table{rel: rel, local: local}, nil
	}
}

func (ev *evaluator) rootEnv() *env {
	vars := make(map[string]binding, len(ev.docs))
	for name, rel := range ev.docs {
		// The physical key width: freshly encoded documents use one digit;
		// relations that have been through package update may carry longer
		// keys, which the width must cover so the for-loop digit arithmetic
		// stays aligned.
		vars["doc:"+name] = binding{tab: &table{rel: rel, local: max(1, rel.MaxKeyLen())}, depth: 0}
	}
	return &env{depth: 0, index: engine.Initial(), vars: vars}
}

// switchTo charges the elapsed time (and, for the analyze report, the
// allocation delta) to the current node, makes id current, and returns the
// previous current node.
func (ev *evaluator) switchTo(id int) int {
	if ev.allocs {
		var mem runtime.MemStats
		runtime.ReadMemStats(&mem)
		if ev.cur >= 0 {
			ev.run.Nodes[ev.cur].Allocs += int64(mem.TotalAlloc - ev.alloc)
		}
		ev.alloc = mem.TotalAlloc
	}
	now := time.Now()
	if ev.cur >= 0 {
		ev.run.Nodes[ev.cur].Time += now.Sub(ev.start)
	}
	prev := ev.cur
	ev.cur, ev.start = id, now
	return prev
}

// finish closes a node opened with switchTo: charges its trailing slice,
// restores the previous node, and records the call and its output rows.
func (ev *evaluator) finish(n *plan.Node, prev, rows int) {
	ev.switchTo(prev)
	ns := ev.node(n)
	ns.Calls++
	ns.Rows += int64(rows)
}

// exec runs one relation-valued plan node under the per-node accounting.
func (ev *evaluator) exec(n *plan.Node, en *env) (*table, error) {
	prev := ev.switchTo(n.ID)
	tab, err := ev.execNode(n, en)
	rows := 0
	if tab != nil {
		rows = tab.rel.Len()
	}
	ev.finish(n, prev, rows)
	return tab, err
}

// execNode dispatches a relation-valued plan node to its implementation.
func (ev *evaluator) execNode(n *plan.Node, en *env) (*table, error) {
	switch n.Op {
	case plan.OpScan:
		return ev.evalVar("doc:"+n.Label, en)
	case plan.OpVar, plan.OpEmbedOuter:
		return ev.evalVar(n.Label, en)
	case plan.OpConst:
		// Constants are replicated into every current environment; this
		// must honour the index even at depth 0, where a false where
		// clause can have emptied it.
		rel := interval.Encode(n.Value)
		out, err := engine.EmbedOuter(en.index, 0, en.depth, rel, ev.budget)
		if err != nil {
			return nil, err
		}
		return &table{rel: out, local: 1}, nil
	case plan.OpLet:
		val, err := ev.exec(n.Inputs[0], en)
		if err != nil {
			return nil, err
		}
		child := en.child(en.depth, en.index)
		child.vars[n.Label] = binding{tab: val, depth: en.depth}
		return ev.exec(n.Inputs[1], child)
	case plan.OpFilter:
		return ev.execFilter(n, en)
	case plan.OpBindVar:
		return ev.execBindVar(n, en)
	case plan.OpMSJ:
		return ev.execMergeJoin(n, en)
	case plan.OpRoots, plan.OpPathStep:
		return ev.execChain(n, en)
	case plan.OpIndexPath:
		return ev.execIndexPath(n, en)
	case plan.OpStructuralSort, plan.OpReverse, plan.OpDistinct, plan.OpSubtreesDFS,
		plan.OpConstruct, plan.OpConcat, plan.OpCount,
		plan.OpAggregate, plan.OpArith, plan.OpTake, plan.OpDrop, plan.OpOrderBy:
		return ev.execCall(n, en)
	case plan.OpInvalid:
		// Run the inputs first so their errors surface the way the
		// direct walk used to report them.
		for _, c := range n.Inputs {
			if _, err := ev.exec(c, en); err != nil {
				return nil, err
			}
		}
		return nil, errors.New("core: " + n.Label)
	default:
		return nil, fmt.Errorf("core: %s node outside a condition", n.OpName())
	}
}

// evalVar resolves a variable or document binding, embedding it into the
// current environments when it was built at a coarser depth (the T'_e_i
// views of Section 4.2).
func (ev *evaluator) evalVar(name string, en *env) (*table, error) {
	b, ok := en.lookup(name)
	if !ok {
		if doc, isDoc := strings.CutPrefix(name, "doc:"); isDoc {
			return nil, fmt.Errorf("core: unknown document %q", doc)
		}
		return nil, fmt.Errorf("core: unbound variable $%s", name)
	}
	// A binding built at this depth is already per environment — except
	// the documents at depth 0 once a where clause dropped the single
	// environment: execFilter leaves them unfiltered, so they are embedded
	// into the (empty) environment set like any coarser binding.
	if b.depth == en.depth && (en.depth > 0 || en.initial()) {
		return b.tab, nil
	}
	if t, ok := en.embedCache[name]; ok {
		return t, nil
	}
	rel, err := engine.EmbedOuter(en.index, b.depth, en.depth, b.tab.rel, ev.budget)
	if err != nil {
		return nil, err
	}
	ev.stats.EmbeddedTuples += int64(rel.Len())
	t := &table{rel: rel, local: b.tab.local}
	if en.embedCache == nil {
		en.embedCache = map[string]*table{}
	}
	en.embedCache[name] = t
	return t, nil
}

// execIndexPath serves a compile-time index resolution (see applyIndexes
// in rewrite.go). The resolution only describes the very relation it was
// built over, so before serving, the node re-checks that the runtime
// document binding is that relation (pointer identity). In the initial
// environment the resolved ranges are the answer and are served directly
// — as they are, or for a descendant seek renumbered the way subtrees-dfs
// numbers them; under refined or deeper environments the chain is still
// loop-invariant (its source is a document scan), so the answer is
// materialized once and embedded into the current environments — exactly
// what the scan-backed chain would compute by embedding the whole
// document first and filtering after. A replaced document binding falls
// back to the scan-backed chain kept in Inputs[0]; pruned paths serve at
// any depth, because an absent path is empty in every environment.
func (ev *evaluator) execIndexPath(n *plan.Node, en *env) (*table, error) {
	if sk := n.Seek; sk != nil {
		if b, ok := en.lookup("doc:" + sk.Doc); ok && b.depth == 0 && b.tab.rel == sk.Rel {
			local := b.tab.local + sk.WidenBy
			if sk.Pruned {
				obs.IndexPrunedPaths.Inc()
				ev.node(n).Skipped += int64(len(sk.Rel.Tuples))
				return &table{rel: &interval.Relation{}, local: local}, nil
			}
			var out *interval.Relation
			if sk.Pos != nil {
				out = engine.SubtreesAt(sk.Rel, sk.Ranges, sk.Pos)
			} else {
				out = &interval.Relation{Tuples: make([]interval.Tuple, 0, sk.Rows)}
				for _, r := range sk.Ranges {
					out.Tuples = append(out.Tuples, sk.Rel.Tuples[r[0]:r[1]]...)
				}
			}
			if !en.initial() {
				embedded, err := engine.EmbedOuter(en.index, 0, en.depth, out, ev.budget)
				if err != nil {
					return nil, err
				}
				ev.stats.EmbeddedTuples += int64(embedded.Len())
				out = embedded
			}
			obs.IndexSeeks.Inc()
			// Nested descendant anchors serve some rows more than once.
			ev.node(n).Skipped += max(0, int64(len(sk.Rel.Tuples))-sk.Rows)
			return &table{rel: out, local: local}, nil
		}
	}
	obs.IndexScanFallbacks.Inc()
	return ev.exec(n.Inputs[0], en)
}

// execChain executes a maximal chain of path operators — the "sequence of
// linear time operations" plan fragments of Section 5 — as one row filter
// over the chain's source relation (package pipeline), materializing only
// the chain's final output. Every path operator runs this way, a lone
// step as a chain of one.
func (ev *evaluator) execChain(head *plan.Node, en *env) (*table, error) {
	chain := []*plan.Node{head}
	for isPathOp(chain[len(chain)-1].Inputs[0]) {
		chain = append(chain, chain[len(chain)-1].Inputs[0])
	}
	if out, ok := ev.tryIndexedChain(chain, en); ok {
		return out, nil
	}
	input, err := ev.exec(chain[len(chain)-1].Inputs[0], en)
	if err != nil {
		return nil, err
	}
	stages := ev.buildStages(chain, en)
	// With Parallelism >= 2 the chain runs morsel-parallel when the input
	// offers safe split points (see pipeline/parallel.go); the runner's
	// output is tuple-for-tuple the serial chain's, so falling back below
	// is purely a performance decision.
	if ev.opts.Parallelism >= 2 {
		if pres, ok := pipeline.RunChainParallel(input.rel, stages, ev.opts.Parallelism); ok {
			head := ev.node(chain[0])
			head.Workers = max(head.Workers, pres.Workers)
			ev.chargeChain(chain, pres.Rows)
			return &table{rel: pres.Rel, local: input.local}, nil
		}
	}
	whole := [][2]int32{{0, int32(len(input.rel.Tuples))}}
	return &table{rel: ev.filter(chain, input.rel, whole, stages), local: input.local}, nil
}

// isPathOp reports whether a plan node is one of the fusable path
// operators.
func isPathOp(n *plan.Node) bool { return n.Op == plan.OpRoots || n.Op == plan.OpPathStep }

// tryIndexedChain is the fused fast path for a chain whose source is a
// servable index seek: the chain filters the seek's resolved row ranges of
// the document in place, so neither the seek result nor any intermediate
// relation is materialized. The seek node never runs through exec here, so
// its actuals are charged directly — the same calls, rows and skipped
// tuples execIndexPath reports; its time is part of the chain head's. The
// path is serial; with Parallelism >= 2 the seek materializes through
// execIndexPath so the morsel runner can split it. A descendant seek
// always does: its rows are renumbered, not served as they are.
func (ev *evaluator) tryIndexedChain(chain []*plan.Node, en *env) (*table, bool) {
	bottom := chain[len(chain)-1].Inputs[0]
	if bottom.Op != plan.OpIndexPath || ev.opts.Parallelism >= 2 {
		return nil, false
	}
	sk := bottom.Seek
	if sk == nil || sk.Pruned || sk.Pos != nil {
		return nil, false
	}
	b, ok := en.lookup("doc:" + sk.Doc)
	if !ok || b.depth != 0 || b.tab.rel != sk.Rel || !en.initial() {
		return nil, false
	}
	obs.IndexSeeks.Inc()
	ns := ev.node(bottom)
	ns.Calls++
	ns.Rows += sk.Rows
	ns.Skipped += int64(len(sk.Rel.Tuples)) - sk.Rows
	out := ev.filter(chain, sk.Rel, sk.Ranges, ev.buildStages(chain, en))
	return &table{rel: out, local: b.tab.local}, true
}

// buildStages lowers a chain's operators into the evaluator's recycled
// stage list (execution order: chain[len-1] first).
func (ev *evaluator) buildStages(chain []*plan.Node, en *env) []pipeline.Stage {
	ev.stages = ev.stages[:0]
	for i := len(chain) - 1; i >= 0; i-- {
		op := chain[i]
		var st pipeline.Stage
		switch {
		case op.Op == plan.OpRoots:
			st = pipeline.RootsStage()
		case op.Step == plan.StepSelect:
			st = pipeline.SelectLabelStage(op.Label)
		case op.Step == plan.StepSelText:
			st = pipeline.SelectTextStage()
		case op.Step == plan.StepChildren:
			st = pipeline.ChildrenStage()
		case op.Step == plan.StepData:
			st = pipeline.DataStage()
		case op.Step == plan.StepHead:
			st = pipeline.HeadStage(en.depth)
		case op.Step == plan.StepTail:
			st = pipeline.TailStage(en.depth)
		}
		ev.stages = append(ev.stages, st)
	}
	return ev.stages
}

// filter runs the fused stages serially over the rows of rel in ranges
// and charges the per-stage survivor counts: every fused operator is a
// filter, so the output is a subsequence of rel's own tuples.
func (ev *evaluator) filter(chain []*plan.Node, rel *interval.Relation, ranges [][2]int32, stages []pipeline.Stage) *interval.Relation {
	ev.rows = append(ev.rows[:0], make([]int, len(stages))...)
	out := pipeline.Filter(rel, ranges, stages, ev.rows)
	ev.chargeChain(chain, ev.rows)
	return &interval.Relation{Tuples: out}
}

// chargeChain books a chain run's per-stage survivor counts (execution
// order, so rows[j] belongs to chain[len-1-j]) on the chain's plan nodes.
// The head already gets its call, output rows and the whole chain's time
// from exec; the fused operators below it get their calls and surviving
// rows here.
func (ev *evaluator) chargeChain(chain []*plan.Node, rows []int) {
	last := len(rows) - 1
	for j, r := range rows[:last] {
		ns := ev.node(chain[last-j])
		ns.Calls++
		ns.Rows += int64(r)
	}
}

// execCall runs the inputs of an operator node and applies it through the
// materializing engine.
func (ev *evaluator) execCall(n *plan.Node, en *env) (*table, error) {
	args := make([]*table, len(n.Inputs))
	for i, c := range n.Inputs {
		t, err := ev.exec(c, en)
		if err != nil {
			return nil, err
		}
		args[i] = t
	}
	return ev.applyOp(n, args, en)
}

func (ev *evaluator) applyOp(n *plan.Node, args []*table, en *env) (*table, error) {
	switch n.Op {
	case plan.OpConstruct:
		rel := engine.Construct(en.index, en.depth, n.Label, args[0].rel)
		return &table{rel: rel, local: max(1, args[0].local)}, nil
	case plan.OpConcat:
		rel := engine.Concat(en.index, en.depth, args[0].rel, args[1].rel)
		return &table{rel: rel, local: max(args[0].local, args[1].local)}, nil
	case plan.OpCount:
		rel := engine.Count(en.index, en.depth, args[0].rel)
		return &table{rel: rel, local: 1}, nil
	case plan.OpAggregate:
		rel := engine.Aggregate(en.index, en.depth, n.Label, args[0].rel)
		return &table{rel: rel, local: 1}, nil
	case plan.OpArith:
		rel := engine.Arith(en.index, en.depth, n.Label, args[0].rel, args[1].rel)
		return &table{rel: rel, local: 1}, nil
	case plan.OpTake:
		return &table{rel: engine.Take(args[0].rel, en.depth, opCount(n)), local: args[0].local}, nil
	case plan.OpDrop:
		return &table{rel: engine.Drop(args[0].rel, en.depth, opCount(n)), local: args[0].local}, nil
	case plan.OpOrderBy:
		return ev.sorted(args[0].local + 1)(engine.OrdBy(args[0].rel, en.depth, n.Label, ev.opts.Parallelism, ev.spill))
	case plan.OpReverse:
		return &table{rel: engine.Reverse(args[0].rel, en.depth), local: args[0].local + 1}, nil
	case plan.OpStructuralSort:
		return ev.sorted(args[0].local + 1)(engine.SortTrees(args[0].rel, en.depth, ev.opts.Parallelism, ev.spill))
	case plan.OpDistinct:
		return ev.sorted(args[0].local)(engine.Distinct(args[0].rel, en.depth, ev.opts.Parallelism, ev.spill))
	case plan.OpSubtreesDFS:
		return &table{rel: engine.SubtreesDFS(args[0].rel, en.depth), local: args[0].local + 1}, nil
	}
	return nil, fmt.Errorf("core: unknown operator %s", n.OpName())
}

// execFilter implements the conditional template of Section 4.2.3: the
// index is filtered to the environments satisfying the condition, and the
// bindings built at the current depth are semi-joined against it.
// Documents are not: they only sit at the current depth at depth 0, where
// the filter either keeps the single environment or drops it, and evalVar
// and the index seeks serve them per environment — so a dropped
// environment reads them as empty, no where clause scans a document, and
// a document binding stays the very relation its index seeks were
// resolved over.
func (ev *evaluator) execFilter(n *plan.Node, en *env) (*table, error) {
	keep, err := ev.pred(n.Inputs[0], en)
	if err != nil {
		return nil, err
	}
	index := engine.FilterIndex(en.index, keep)
	child := en.child(en.depth, index)
	for name, b := range child.vars {
		if b.depth == en.depth && !strings.HasPrefix(name, "doc:") {
			child.vars[name] = binding{
				tab:   &table{rel: engine.SemiJoin(b.tab.rel, index, en.depth), local: b.tab.local},
				depth: b.depth,
			}
		}
	}
	return ev.exec(n.Inputs[1], child)
}

// pred evaluates a predicate node to one boolean per environment of the
// index, under the same per-node accounting as exec (rows counts the
// evaluated environments).
func (ev *evaluator) pred(n *plan.Node, en *env) ([]bool, error) {
	prev := ev.switchTo(n.ID)
	out, err := ev.predNode(n, en)
	ev.finish(n, prev, len(out))
	return out, err
}

// opCount reads the decimal count a take/drop node carries in Label.
func opCount(n *plan.Node) int64 {
	v, err := strconv.ParseInt(n.Label, 10, 64)
	if err != nil {
		return 0
	}
	return v
}

func (ev *evaluator) predNode(n *plan.Node, en *env) ([]bool, error) {
	switch n.Op {
	case plan.OpCmpVal:
		lt, err := ev.exec(n.Inputs[0], en)
		if err != nil {
			return nil, err
		}
		rt, err := ev.exec(n.Inputs[1], en)
		if err != nil {
			return nil, err
		}
		return engine.ValueLessPerEnv(en.index, en.depth, lt.rel, rt.rel), nil
	case plan.OpCmpEq, plan.OpCmpLess:
		lt, err := ev.exec(n.Inputs[0], en)
		if err != nil {
			return nil, err
		}
		rt, err := ev.exec(n.Inputs[1], en)
		if err != nil {
			return nil, err
		}
		cmp := engine.ComparePerEnv(en.index, en.depth, lt.rel, rt.rel)
		out := make([]bool, len(cmp))
		for i, v := range cmp {
			if n.Op == plan.OpCmpEq {
				out[i] = v == 0
			} else {
				out[i] = v < 0
			}
		}
		return out, nil
	case plan.OpEmptyTest:
		t, err := ev.exec(n.Inputs[0], en)
		if err != nil {
			return nil, err
		}
		return engine.EmptyPerEnv(en.index, en.depth, t.rel), nil
	case plan.OpContainsTest:
		lt, err := ev.exec(n.Inputs[0], en)
		if err != nil {
			return nil, err
		}
		rt, err := ev.exec(n.Inputs[1], en)
		if err != nil {
			return nil, err
		}
		return engine.ContainsPerEnv(en.index, en.depth, lt.rel, rt.rel), nil
	case plan.OpNot:
		v, err := ev.pred(n.Inputs[0], en)
		if err != nil {
			return nil, err
		}
		for i := range v {
			v[i] = !v[i]
		}
		return v, nil
	case plan.OpAnd:
		l, err := ev.pred(n.Inputs[0], en)
		if err != nil {
			return nil, err
		}
		r, err := ev.pred(n.Inputs[1], en)
		if err != nil {
			return nil, err
		}
		for i := range l {
			l[i] = l[i] && r[i]
		}
		return l, nil
	case plan.OpOr:
		l, err := ev.pred(n.Inputs[0], en)
		if err != nil {
			return nil, err
		}
		r, err := ev.pred(n.Inputs[1], en)
		if err != nil {
			return nil, err
		}
		for i := range l {
			l[i] = l[i] || r[i]
		}
		return l, nil
	case plan.OpInvalid:
		return nil, errors.New("core: " + n.Label)
	default:
		return nil, fmt.Errorf("core: %s node used as a condition", n.OpName())
	}
}

// execBindVar implements the iteration template of Section 4.2.4 — the
// literal nested-loop translation (and the only loop strategy in NLJ
// plans; MSJ plans compile eligible loops to OpMSJ nodes instead).
func (ev *evaluator) execBindVar(n *plan.Node, en *env) (*table, error) {
	ev.stats.NestedLoops++
	dom, err := ev.exec(n.Inputs[0], en)
	if err != nil {
		return nil, err
	}
	roots := engine.Roots(dom.rel)
	index := engine.EnterIndex(roots)
	newDepth := en.depth + dom.local
	bound := engine.BindVar(dom.rel, roots, en.depth, newDepth)
	child := en.child(newDepth, index)
	child.vars[n.Label] = binding{tab: &table{rel: bound, local: dom.local}, depth: newDepth}
	if n.Pos != "" {
		pos := engine.Positions(roots, en.depth, newDepth)
		child.vars[n.Pos] = binding{tab: &table{rel: pos, local: 1}, depth: newDepth}
	}
	body, err := ev.exec(n.Inputs[1], child)
	if err != nil {
		return nil, err
	}
	// Exiting the loop costs nothing: the environment digits become part
	// of the local position (the paper's width adjustment w_e · w_e').
	return &table{rel: body.rel, local: dom.local + body.local}, nil
}

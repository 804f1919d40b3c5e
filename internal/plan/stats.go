package plan

import "time"

// NodeStats are the actuals of one operator in one execution. Every
// execution records them — it is the executor's only accounting; the phase
// breakdown and the operator table are derived from it. Time and Allocs
// are exclusive — work done by a node's inputs is charged to the inputs —
// so the per-plan totals are the sums over all nodes.
type NodeStats struct {
	// Calls counts how many times the operator ran (usually 1: the
	// dynamic-interval evaluation is set-oriented, every operator
	// processes all environments in one call).
	Calls int
	// Rows is the total output tuple count across calls. For predicate
	// operators it counts evaluated environments.
	Rows int64
	// Time is the exclusive wall time spent in the operator.
	Time time.Duration
	// Allocs is the exclusive allocated-byte delta attributed to the
	// operator (heap-sampled; an order-of-magnitude signal, not exact).
	// Reading it stops the world, so it is only taken when the caller asked
	// for the analyze report; 0 otherwise.
	Allocs int64
	// Spilled counts external-sort runs the operator wrote to disk while
	// staying under the memory budget.
	Spilled int64
	// Skipped counts the relation tuples an index-backed source never read
	// — document rows outside the served ranges (the whole document for a
	// pruned path). 0 for scan-backed and non-source operators.
	Skipped int64
	// Workers is the largest number of pool workers that participated in
	// one of the operator's parallel phases (morsel chains, concurrent
	// merge-join sorts, the partitioned probe); 0 for operators that ran
	// no parallel phase. The process-wide worker budget may grant fewer
	// workers than Options.Parallelism requested, so this is an observed
	// actual.
	Workers int
	// Partitions is the largest key-range partition count of the
	// operator's exchange or probe repartitioning (1 when a join probe ran
	// serial, 0 for operators that never partition). Unlike Workers it
	// depends only on the input and the requested parallelism, never on
	// the budget's grant.
	Partitions int
}

// RunStats holds one execution's per-node actuals, indexed by Node.ID.
// Each execution owns its RunStats; the plan itself stays immutable and
// shared.
type RunStats struct {
	Nodes []NodeStats
}

// Node returns the stats slot for a node ID (zero value if out of range).
func (rs *RunStats) Node(id int) NodeStats {
	if rs == nil || id < 0 || id >= len(rs.Nodes) {
		return NodeStats{}
	}
	return rs.Nodes[id]
}

// Total sums the exclusive operator times; because times are exclusive
// this is the plan's total execution wall time.
func (rs *RunStats) Total() time.Duration {
	if rs == nil {
		return 0
	}
	var d time.Duration
	for _, n := range rs.Nodes {
		d += n.Time
	}
	return d
}

// PhaseTimes sums the exclusive node times by Figure 10 phase — paths,
// join, construction — so the three add up to Total.
func (rs *RunStats) PhaseTimes(root *Node) (paths, join, construction time.Duration) {
	var d [numPhases]time.Duration
	Walk(root, func(n *Node) { d[n.Phase] += rs.Node(n.ID).Time })
	return d[PhasePaths], d[PhaseJoin], d[PhaseConstruction]
}

// OperatorStat is one row of the flattened analyze report.
type OperatorStat struct {
	ID         int
	Op         string
	Calls      int
	Rows       int64
	Time       time.Duration
	Allocs     int64
	Spilled    int64
	Skipped    int64
	Workers    int
	Partitions int
}

// Operators flattens a plan and its run stats into report rows in
// preorder (plan) order.
func Operators(root *Node, rs *RunStats) []OperatorStat {
	var out []OperatorStat
	Walk(root, func(n *Node) {
		s := rs.Node(n.ID)
		name := n.OpName()
		if d := n.Detail(); d != "" {
			name += " [" + d + "]"
		}
		out = append(out, OperatorStat{
			ID:         n.ID,
			Op:         name,
			Calls:      s.Calls,
			Rows:       s.Rows,
			Time:       s.Time,
			Allocs:     s.Allocs,
			Spilled:    s.Spilled,
			Skipped:    s.Skipped,
			Workers:    s.Workers,
			Partitions: s.Partitions,
		})
	})
	return out
}

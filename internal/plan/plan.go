// Package plan defines the physical-plan IR shared by the whole query
// path: the compiler in internal/core lowers a core expression into a
// tree of typed operator nodes, the executor runs each node through the
// materializing engine or — for chains of path operators — the streaming
// pipeline, and internal/sqlgen emits the paper's single-statement SQL
// translation from the very same tree. There is exactly one plan shape per
// variant, and it is the one that runs — Explain renders the executed
// plan, not a parallel description of it.
//
// Nodes carry what the executor runs — the operator, its arguments, the
// local key-digit width the paper's Section 4.3 analysis gives its output
// — and what the estimator (internal/opt) expects: its row estimate. Nodes
// are immutable after compilation (compiled plans are cached and shared
// across concurrent executions); per-run actuals live in a RunStats
// indexed by Node.ID.
package plan

import (
	"fmt"
	"strings"

	"dixq/internal/index"
	"dixq/internal/interval"
	"dixq/internal/xmltree"
)

// Op identifies a physical operator.
type Op int

// The operator set. The first group produces relations (interval-encoded
// forests, one per environment); the Cmp/Empty/Contains/Not/And/Or group
// produces one boolean per environment and appears only under OpFilter or
// as a merge-join residual.
const (
	// OpInvalid marks an expression the compiler could not lower (unknown
	// function or node type); executing it reports Label as the error.
	OpInvalid Op = iota
	// OpScan reads the interval encoding of document Label. At Depth > 0
	// the executor embeds the document into the current environments.
	OpScan
	// OpConst replicates the literal forest Value into every environment.
	OpConst
	// OpVar reads variable Label, bound at the current depth.
	OpVar
	// OpEmbedOuter reads variable Label bound at FromDepth < Depth,
	// embedding it into the finer environments (the T'_e_i views of §4.2).
	OpEmbedOuter
	// OpLet binds Label to Inputs[0] while evaluating Inputs[1].
	OpLet
	// OpFilter is the conditional template (§4.2.3): Inputs[0] is the
	// predicate, Inputs[1] the body evaluated under the filtered index.
	OpFilter
	// OpBindVar is the literal iteration template (§4.2.4): the for-loop
	// entry that binds Label (and position Pos) over domain Inputs[0] and
	// evaluates body Inputs[1] in the extended environments.
	OpBindVar
	// OpMSJ is the decorrelated §5 evaluation of a for-loop: Inputs are
	// [domain, outer-key, inner-key, body]. The domain runs once at depth
	// D0; both key sides are sorted by D0 prefix and key and merged under
	// the comparator Cmp (equal runs for =, a binary-searched end of the
	// prefix run for the orders); the body (already wrapped in an OpFilter
	// for residual conjuncts) runs over the rebuilt matching environments.
	OpMSJ
	// OpRoots keeps root tuples (Algorithm 5.2).
	OpRoots
	// OpPathStep is one of the remaining order-preserving unary path
	// operators, named by Step (select carries its label in Label).
	OpPathStep
	// OpStructuralSort reorders top-level trees into structural order.
	OpStructuralSort
	// OpReverse reverses the top-level tree order.
	OpReverse
	// OpDistinct keeps the first of structurally equal trees.
	OpDistinct
	// OpSubtreesDFS enumerates every subtree in DFS order.
	OpSubtreesDFS
	// OpConstruct wraps each environment's forest under a Label node.
	OpConstruct
	// OpConcat concatenates Inputs[0] and Inputs[1] per environment.
	OpConcat
	// OpCount yields each environment's top-level tree count as text.
	OpCount
	// OpAggregate reduces each environment's numeric root labels to one
	// text atom; Label names the aggregate (sum, avg, min, max). sum
	// yields "0" for environments without numeric roots; the others
	// yield nothing there.
	OpAggregate
	// OpArith applies the binary arithmetic operator Label (+, -, *,
	// div) to the first root labels of Inputs[0] and Inputs[1] per
	// environment; an empty side yields nothing.
	OpArith
	// OpTake keeps each environment's first N top-level trees; Label
	// carries the decimal N.
	OpTake
	// OpDrop removes each environment's first N top-level trees; Label
	// carries the decimal N.
	OpDrop
	// OpOrderBy stably reorders each environment's #ord wrapper trees by
	// their #key parts under the xnum value ordering; Label is the
	// direction (asc or desc).
	OpOrderBy
	// OpCmpEq is structural (deep) equality of Inputs[0] and Inputs[1].
	OpCmpEq
	// OpCmpLess is strict structural order of Inputs[0] before Inputs[1].
	OpCmpLess
	// OpCmpVal is the existential value comparison: some root label of
	// Inputs[0] is value-less than some root label of Inputs[1].
	OpCmpVal
	// OpEmptyTest tests Inputs[0] for emptiness per environment.
	OpEmptyTest
	// OpContainsTest is substring containment of string values.
	OpContainsTest
	// OpNot negates Inputs[0].
	OpNot
	// OpAnd conjoins Inputs[0] and Inputs[1].
	OpAnd
	// OpOr disjoins Inputs[0] and Inputs[1].
	OpOr
	// OpIndexPath serves a document-rooted path chain from the document's
	// structural index: Seek carries the resolved row ranges (or the
	// pruned-empty proof). It has no inputs.
	OpIndexPath
)

// Step names for OpPathStep, matching the XFn operator names.
const (
	StepSelect   = "select"
	StepSelText  = "seltext"
	StepChildren = "children"
	StepData     = "data"
	StepHead     = "head"
	StepTail     = "tail"
)

// Phase is the Figure 10 cost category a node's exclusive time is
// reported under.
type Phase uint8

const (
	// PhaseJoin is the environment machinery: loop entry, outer embedding,
	// filtering, merge joins, and everything evaluated on behalf of a
	// condition or a merge-join key (Figure 10 counts predicate evaluation
	// as part of the join).
	PhaseJoin Phase = iota
	// PhasePaths is path extraction: the fused chains, index seeks, and
	// the order-preserving forest operators.
	PhasePaths
	// PhaseConstruction is result building: element construction,
	// concatenation, aggregation, and reordering.
	PhaseConstruction
	numPhases
)

// opPhase is the phase of an operator outside a condition subtree.
func opPhase(op Op) Phase {
	switch op {
	case OpRoots, OpPathStep, OpIndexPath, OpTake, OpDrop, OpDistinct, OpSubtreesDFS:
		return PhasePaths
	case OpConst, OpConstruct, OpConcat, OpCount, OpAggregate, OpArith,
		OpOrderBy, OpReverse, OpStructuralSort:
		return PhaseConstruction
	}
	return PhaseJoin
}

// Seek is the compile-time resolution of a path chain against a document's
// structural index: the exact row ranges of the answer forest, or the proof
// that it is empty. The executor serves it only after re-checking that the
// runtime document binding is the very relation the ranges index into
// (pointer identity); a mismatch is an error.
type Seek struct {
	// Doc is the document name whose binding must match Rel.
	Doc string
	// Path renders the resolved chain for Explain, e.g. "/site/people".
	Path string
	// Rel is the relation the ranges index into.
	Rel *interval.Relation
	// Ranges are the [start, end) row ranges of the answer, by ascending
	// start: disjoint, unless Pos is set.
	Ranges [][2]int32
	// Pos marks a descendant seek (a chain ending in subtrees-dfs and a
	// select): Ranges[i] is one selected subtree, served renumbered under
	// the position digit Pos[i] exactly as subtrees-dfs numbers it. Such
	// subtrees may nest. Nil for plain seeks, whose rows serve as they are.
	Pos []int64
	// Rows is the total rows covered by Ranges, nested rows once per range.
	Rows int64
	// Pruned reports a dataguide-proven empty answer (Ranges is nil).
	Pruned bool
	// Classes are the dataguide classes whose instances are the answer's
	// top-level trees: the provenance whose annotations the estimator
	// reads. A pruned seek has the empty class set. Nil when no class set
	// describes the answer: a descendant seek, or a chain pruned through
	// head, tail or subtrees-dfs.
	Classes []*index.Class
	// Roots marks a chain through roots(): each answer tree is its root
	// node alone, not the class instance's subtree.
	Roots bool
	// WidenBy counts the subtrees-dfs operators between the document scan
	// and this node's output: each widens the local key width by one digit.
	// A descendant seek serves at the widened width, and a pruned node
	// reports it for its (empty) output so downstream construction keeps
	// digit-identical keys.
	WidenBy int
}

// Node is one operator of a compiled physical plan. A Node and its
// subtree are immutable after compilation; concurrent executions of the
// same plan share the tree and record actuals into their own RunStats.
type Node struct {
	// ID is the node's preorder position in its plan, the index into
	// RunStats.Nodes. Assigned once by the compiler.
	ID int
	// Phase is the Figure 10 category the node's time counts under: fixed
	// by the operator, except that condition subtrees and merge-join key
	// inputs are PhaseJoin throughout. Assigned with ID.
	Phase Phase
	// Op is the operator.
	Op Op
	// Step names the path operator for OpPathStep.
	Step string
	// Label is the operator's string argument: document name (OpScan),
	// variable name (OpVar/OpEmbedOuter/OpLet/OpBindVar/OpMSJ), selection
	// or construction label (OpPathStep select, OpConstruct).
	Label string
	// Pos is the positional variable of a loop ("" if none).
	Pos string
	// Value is the literal forest of OpConst.
	Value xmltree.Forest
	// Digits is the inferred local key width of the output — the number
	// of key digits encoding positions within one environment (§4.3).
	// Zero for predicate operators.
	Digits int
	// Depth is the static environment depth at which the node runs.
	Depth int
	// FromDepth is the static binding depth of an OpEmbedOuter source.
	FromDepth int
	// D0 is the static domain depth of an OpMSJ (the loop-invariance
	// level); the executor recomputes the runtime value from DomainVars.
	D0 int
	// Cmp is the predicate an OpMSJ joins on: OpCmpEq, OpCmpLess or
	// OpCmpVal. InnerRight records that the inner key is the predicate's
	// right operand (outer < inner); = is symmetric and always records the
	// inner key on the left.
	Cmp        Op
	InnerRight bool
	// DomainVars lists the free variables of an OpMSJ domain (documents
	// excluded); the executor takes the maximum of their binding depths
	// as the runtime d0.
	DomainVars []string
	// Est is the estimator's expected output rows (for a predicate:
	// verdicts), computed from the annotations of the dataguide classes
	// (index.Class); -1 when no estimator saw the node (a plan compiled
	// without statistics). The rendered plan shows it beside the actual row count
	// of an analyzed run, so misestimates are visible per operator.
	Est int64
	// Seek is the index resolution of an OpIndexPath node.
	Seek *Seek
	// Inputs are the child plans, in the per-operator order documented
	// on the Op constants.
	Inputs []*Node
}

// IsPredicate reports whether the node produces per-environment booleans
// rather than a relation.
func (n *Node) IsPredicate() bool {
	switch n.Op {
	case OpCmpEq, OpCmpLess, OpCmpVal, OpEmptyTest, OpContainsTest, OpNot, OpAnd, OpOr:
		return true
	}
	return false
}

// OpName returns the operator's display name.
func (n *Node) OpName() string {
	switch n.Op {
	case OpInvalid:
		return "invalid"
	case OpScan:
		return "scan"
	case OpConst:
		return "const"
	case OpVar:
		return "var"
	case OpEmbedOuter:
		return "embed-outer"
	case OpLet:
		return "let"
	case OpFilter:
		return "filter"
	case OpBindVar:
		return "for-nested-loop"
	case OpMSJ:
		return "for-merge-join"
	case OpRoots:
		return "roots"
	case OpPathStep:
		return n.Step
	case OpStructuralSort:
		return "structural-sort"
	case OpReverse:
		return "reverse"
	case OpDistinct:
		return "distinct"
	case OpSubtreesDFS:
		return "subtrees-dfs"
	case OpConstruct:
		return "construct"
	case OpConcat:
		return "concat"
	case OpCount:
		return "count"
	case OpAggregate:
		return "aggregate-" + n.Label
	case OpArith:
		return "arith(" + n.Label + ")"
	case OpTake:
		return "take"
	case OpDrop:
		return "drop"
	case OpOrderBy:
		return "order-by"
	case OpCmpEq:
		return "deep-compare(=)"
	case OpCmpLess:
		return "deep-compare(<)"
	case OpCmpVal:
		return "value-compare(<)"
	case OpEmptyTest:
		return "empty"
	case OpContainsTest:
		return "contains"
	case OpNot:
		return "not"
	case OpAnd:
		return "and"
	case OpOr:
		return "or"
	case OpIndexPath:
		if n.Seek.Pruned {
			return "index-prune"
		}
		return "index-seek"
	default:
		return fmt.Sprintf("op(%d)", int(n.Op))
	}
}

// Detail returns the operator's rendered argument ("" if none).
func (n *Node) Detail() string {
	switch n.Op {
	case OpScan:
		return fmt.Sprintf("document(%q)", n.Label)
	case OpConst:
		return fmt.Sprintf("%d nodes", n.Value.Size())
	case OpVar:
		return "$" + n.Label
	case OpEmbedOuter:
		return fmt.Sprintf("$%s (depth %d -> %d)", n.Label, n.FromDepth, n.Depth)
	case OpLet:
		return "$" + n.Label
	case OpBindVar, OpMSJ:
		v := "$" + n.Label
		if n.Pos != "" {
			v += " at $" + n.Pos
		}
		if n.Op == OpMSJ {
			v += " on " + n.comparator()
		}
		return v
	case OpPathStep:
		if n.Step == StepSelect {
			return n.Label
		}
		return ""
	case OpConstruct:
		return n.Label
	case OpTake, OpDrop:
		return n.Label
	case OpOrderBy:
		return n.Label
	case OpInvalid:
		return n.Label
	case OpIndexPath:
		if n.Seek.Pruned {
			return fmt.Sprintf("document(%q)%s: no such path", n.Seek.Doc, n.Seek.Path)
		}
		return fmt.Sprintf("document(%q)%s: %d ranges, %d rows",
			n.Seek.Doc, n.Seek.Path, len(n.Seek.Ranges), n.Seek.Rows)
	default:
		return ""
	}
}

// comparator renders an OpMSJ's join predicate over its key sides, in
// operand order.
func (n *Node) comparator() string {
	l, r := "inner-key", "outer-key"
	if n.InnerRight {
		l, r = r, l
	}
	switch n.Cmp {
	case OpCmpEq:
		return l + " = " + r
	case OpCmpLess:
		return "deep-less(" + l + ", " + r + ")"
	}
	return l + " < " + r
}

// inputLabels returns the per-child role names for multi-role operators,
// or nil when children are positionally obvious.
func (n *Node) inputLabels() []string {
	switch n.Op {
	case OpLet:
		return []string{"value", "body"}
	case OpFilter:
		return []string{"pred", "body"}
	case OpBindVar:
		return []string{"domain", "body"}
	case OpMSJ:
		return []string{"domain", "outer-key", "inner-key", "body"}
	}
	return nil
}

// Tree renders the plan as an indented operator tree with its static
// annotations: the output's local digit width and the estimated rows.
func (n *Node) Tree() string {
	var b strings.Builder
	n.write(&b, 0, "", nil)
	return b.String()
}

// TreeWithStats renders the executed plan annotated with the per-node
// actuals of one run — the analyze form of Explain.
func (n *Node) TreeWithStats(rs *RunStats) string {
	var b strings.Builder
	n.write(&b, 0, "", rs)
	return b.String()
}

func (n *Node) write(b *strings.Builder, indent int, role string, rs *RunStats) {
	for i := 0; i < indent; i++ {
		b.WriteString("  ")
	}
	if role != "" {
		b.WriteString(role)
		b.WriteString(": ")
	}
	b.WriteString(n.OpName())
	if d := n.Detail(); d != "" {
		fmt.Fprintf(b, " [%s]", d)
	}
	var ann []string
	if !n.IsPredicate() && n.Op != OpInvalid {
		ann = append(ann, fmt.Sprintf("digits: %d", n.Digits))
	}
	if n.Est >= 0 {
		ann = append(ann, fmt.Sprintf("est: %d", n.Est))
	}
	if len(ann) > 0 {
		fmt.Fprintf(b, " {%s}", strings.Join(ann, ", "))
	}
	if rs != nil {
		s := rs.Node(n.ID)
		// The row and spill counts first (locked by the analyze goldens),
		// workers and the measured group last, so tests can mask them in
		// one pass.
		fmt.Fprintf(b, " (act=%d calls=%d spilled=%d skipped=%d workers=%d time=%s allocs=%d)",
			s.Rows, s.Calls, s.Spilled, s.Skipped, s.Workers, s.Time, s.Allocs)
	}
	b.WriteByte('\n')
	labels := n.inputLabels()
	for i, c := range n.Inputs {
		role := ""
		if labels != nil && i < len(labels) {
			role = labels[i]
		}
		c.write(b, indent+1, role, rs)
	}
}

// Walk visits the plan in preorder.
func Walk(n *Node, fn func(*Node)) {
	if n == nil {
		return
	}
	fn(n)
	for _, c := range n.Inputs {
		Walk(c, fn)
	}
}

// MaxID returns the largest node ID in the plan (IDs are dense preorder
// positions, so MaxID+1 is the node count).
func MaxID(n *Node) int {
	m := 0
	Walk(n, func(c *Node) {
		if c.ID > m {
			m = c.ID
		}
	})
	return m
}

// ResetEst marks every node's estimate unset (-1). The compiler calls it
// once per plan before handing the tree to the estimator, so plans
// compiled without statistics, which are not estimated, render no
// estimate rather than a spurious zero.
func ResetEst(n *Node) {
	Walk(n, func(c *Node) { c.Est = -1 })
}

// AssignIDs numbers the plan's nodes in preorder and fixes their phases.
// The compiler calls it once; IDs index RunStats.Nodes.
func AssignIDs(n *Node) {
	id := 0
	var assign func(n *Node, cond bool)
	assign = func(n *Node, cond bool) {
		n.ID = id
		id++
		n.Phase = PhaseJoin
		if !cond {
			n.Phase = opPhase(n.Op)
		}
		for i, c := range n.Inputs {
			key := n.Op == OpFilter && i == 0 || n.Op == OpMSJ && (i == 1 || i == 2)
			assign(c, cond || key)
		}
	}
	assign(n, false)
}

// Documents returns the names of the documents the plan scans, in
// first-occurrence (preorder) order — the order that fixes the doc_N base
// table numbering of the SQL translation.
func Documents(n *Node) []string {
	var names []string
	seen := map[string]bool{}
	Walk(n, func(c *Node) {
		if c.Op == OpScan && !seen[c.Label] {
			seen[c.Label] = true
			names = append(names, c.Label)
		}
	})
	return names
}

// FreeVars returns the variable and document names free in the plan;
// document names are prefixed "doc:", mirroring xq.FreeVars.
func FreeVars(n *Node) map[string]bool {
	out := map[string]bool{}
	collectFree(n, map[string]bool{}, out)
	return out
}

func collectFree(n *Node, bound, out map[string]bool) {
	switch n.Op {
	case OpScan:
		out["doc:"+n.Label] = true
	case OpVar, OpEmbedOuter:
		if !bound[n.Label] {
			out[n.Label] = true
		}
	case OpLet:
		collectFree(n.Inputs[0], bound, out)
		collectFreeUnder(n.Inputs[1], bound, out, n.Label)
		return
	case OpBindVar:
		collectFree(n.Inputs[0], bound, out)
		collectFreeUnder(n.Inputs[1], bound, out, n.Label, n.Pos)
		return
	case OpMSJ:
		collectFree(n.Inputs[0], bound, out)
		collectFree(n.Inputs[1], bound, out)
		collectFreeUnder(n.Inputs[2], bound, out, n.Label, n.Pos)
		collectFreeUnder(n.Inputs[3], bound, out, n.Label, n.Pos)
		return
	}
	for _, c := range n.Inputs {
		collectFree(c, bound, out)
	}
}

func collectFreeUnder(n *Node, bound, out map[string]bool, vars ...string) {
	var added []string
	for _, v := range vars {
		if v != "" && !bound[v] {
			bound[v] = true
			added = append(added, v)
		}
	}
	collectFree(n, bound, out)
	for _, v := range added {
		delete(bound, v)
	}
}

// Report types: the machine-readable record of what the optimizer saw
// and decided, marshaled into the server's /explain response. All fields are computed at plan-compile time
// against one stats epoch, so a report is immutable and shared like the
// plan it describes.
package opt

// Report is the full record of one Optimize call.
type Report struct {
	// Graph is the join graph extracted from the plan: base access paths
	// as vertices, equality predicates as edges, and the join-order cost
	// comparison.
	Graph Graph `json:"graph"`
	// Decisions lists every costed choice, in plan preorder.
	Decisions []Decision `json:"decisions"`
}

// Graph is the isolated join graph of a plan (after Grust et al.,
// "XQuery Join Graph Isolation"): the relational core a conventional
// optimizer works on, extracted from the nested plan.
type Graph struct {
	Vertices []Vertex   `json:"vertices"`
	Edges    []Edge     `json:"edges,omitempty"`
	Order    *OrderCost `json:"order,omitempty"`
}

// Vertex is one base access path.
type Vertex struct {
	// NodeID is the plan node the vertex describes (post-optimization
	// preorder ID).
	NodeID int `json:"node_id"`
	// Kind is "scan", "index-seek" or "pruned".
	Kind string `json:"kind"`
	// Detail is the node's rendered argument (document, path, ranges).
	Detail string `json:"detail,omitempty"`
	// EstRows is the statistics-fed estimate of rows this access path
	// produces per environment.
	EstRows int64 `json:"est_rows"`
}

// Edge is one join predicate connecting two access paths.
type Edge struct {
	From int `json:"from"`
	To   int `json:"to"`
	// Pred names the predicate ("=" for the equality joins the algebra
	// produces).
	Pred string `json:"pred"`
	// Selectivity is the estimated pass fraction, distinct-value-based
	// when statistics resolve both sides.
	Selectivity float64 `json:"selectivity"`
}

// OrderCost compares the syntactic join order against the cheapest order
// the search found. Orders are vertex index sequences.
type OrderCost struct {
	Given     []int   `json:"given"`
	GivenCost float64 `json:"given_cost"`
	Best      []int   `json:"best"`
	BestCost  float64 `json:"best_cost"`
	// Pinned reports that the executed plan keeps the given order;
	// XQuery sequence semantics make loop order observable.
	Pinned bool   `json:"pinned"`
	Note   string `json:"note,omitempty"`
}

// Decision is one costed choice of join algorithm for a for-loop.
type Decision struct {
	// NodeID is the loop's plan node (post-optimization preorder ID).
	NodeID int `json:"node_id"`
	// Loop is the loop variable ("$p").
	Loop string `json:"subject"`
	// Choice is the winning algorithm: "merge-join" or "nested-loop".
	Choice string `json:"choice"`
	// CostMergeJoin and CostNestedLoop are the join-machinery costs of
	// the two algorithms (body cost is identical and excluded).
	CostMergeJoin  float64 `json:"cost_merge_join,omitempty"`
	CostNestedLoop float64 `json:"cost_nested_loop,omitempty"`
	// EstMatches is the estimated matching-environment count.
	EstMatches int64 `json:"est_matches,omitempty"`
}

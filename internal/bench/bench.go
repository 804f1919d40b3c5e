// Package bench is the experiment harness behind cmd/dibench and the
// repository's benchmarks: it re-runs the evaluation of Section 6 of the
// paper (Figures 8, 9, 10 and 11, plus the structural-join experiment the
// paper describes without a table) over the XMark-like generator, printing
// tables of the same shape.
//
// Absolute numbers differ from the paper's 2003 hardware; the claims under
// test are the *shapes*: which systems scale near-linearly, which are
// quadratic, and where the cost sits (Figure 10). Systems that exceed the
// configured budget are reported DNF, mirroring the paper's two-hour CPU
// cutoff (the paper's IM — out of memory — cases also surface as DNF here,
// since the budget bounds materialized tuples). Every run goes through
// dixq.Query.Run, so the harness measures the engines the library and the
// server run, under the same deadline.
package bench

import (
	"errors"
	"time"

	"dixq"
	"dixq/internal/xmark"
)

// DefaultEngines lists the engines the experiments run by default, in
// report order: the systems of the Section 6 experiments and their
// stand-ins (see DESIGN.md for the substitution table). The interpreter
// stands in for the Galax/Kweelt/IPSI-XQ/QuiP class of in-memory
// processors; generic-sql executes the generated single SQL statement on
// the generic (untuned) relational engine; di-nlj and di-msj are the DI
// prototype with nested-loop and merge-sort join plans.
var DefaultEngines = []dixq.Engine{dixq.Interpreter, dixq.GenericSQL, dixq.NestedLoop, dixq.MergeJoin}

// Outcome is one (engine, workload) measurement.
type Outcome struct {
	Seconds float64
	// DNF marks a run that exceeded the budget (time or tuples).
	DNF bool
	// Err holds a non-budget failure, which should never happen.
	Err error
	// Trees is the number of result trees (sanity: engines must agree).
	Trees int
	// Stats carries the phase breakdown for DI engines.
	Stats *dixq.Stats
}

// Config bounds each measurement.
type Config struct {
	// Timeout per single run; zero means none.
	Timeout time.Duration
	// MaxTuples bounds materialization in DI plans; zero means none.
	MaxTuples int64
	// Parallelism bounds the DI engines' intra-query workers (0 resolves
	// to GOMAXPROCS, 1 is serial — the same semantics as dixq.Options).
	Parallelism int
}

// Workload is a prepared query over a catalog holding one document under
// the name the XMark queries read.
type Workload struct {
	q   *dixq.Query
	cat *dixq.Catalog
}

// NewWorkload prepares a query text and document for repeated runs.
func NewWorkload(queryText string, doc *dixq.Document) (*Workload, error) {
	q, err := dixq.ParseQuery(queryText)
	if err != nil {
		return nil, err
	}
	cat := dixq.NewCatalog()
	cat.Add(xmark.DocName, doc)
	return &Workload{q: q, cat: cat}, nil
}

// Run measures one engine on the workload through the public API.
func (w *Workload) Run(e dixq.Engine, cfg Config) Outcome {
	var out Outcome
	start := time.Now()
	res, err := w.q.Run(w.cat, &dixq.Options{
		Engine:      e,
		Timeout:     cfg.Timeout,
		MaxTuples:   cfg.MaxTuples,
		Parallelism: cfg.Parallelism,
	})
	out.Seconds = time.Since(start).Seconds()
	switch {
	case errors.Is(err, dixq.ErrBudgetExceeded):
		out.DNF = true
	case err != nil:
		out.Err = err
	default:
		out.Trees, out.Stats = res.Document().Trees(), res.Stats
	}
	return out
}

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
// since the budget bounds materialized tuples).
package bench

import (
	"errors"
	"fmt"
	"time"

	"dixq/internal/core"
	"dixq/internal/engine"
	"dixq/internal/interp"
	"dixq/internal/interval"
	"dixq/internal/minisql"
	"dixq/internal/sqlgen"
	"dixq/internal/xmark"
	"dixq/internal/xmltree"
	"dixq/internal/xq"
)

// System identifies an evaluation strategy under test.
type System string

// The systems of the Section 6 experiments and their stand-ins (see
// DESIGN.md for the substitution table).
const (
	// SysInterp is the Figure-3 interpreter, standing in for the
	// Galax/Kweelt/IPSI-XQ/QuiP class of in-memory processors.
	SysInterp System = "interp"
	// SysNLJ is the DI prototype with nested-loop plans (DI-NLJ).
	SysNLJ System = "di-nlj"
	// SysMSJ is the DI prototype with merge-sort join plans (DI-MSJ).
	SysMSJ System = "di-msj"
	// SysSQL executes the generated single SQL statement on the generic
	// (untuned) relational engine.
	SysSQL System = "generic-sql"
)

// AllSystems lists every system in report order.
var AllSystems = []System{SysInterp, SysSQL, SysNLJ, SysMSJ}

// Outcome is one (system, workload) measurement.
type Outcome struct {
	System  System
	Seconds float64
	// DNF marks a run that exceeded the budget (time or tuples).
	DNF bool
	// Err holds a non-budget failure, which should never happen.
	Err error
	// Trees is the number of result trees (sanity: systems must agree).
	Trees int
	// Stats carries the phase breakdown for DI systems.
	Stats *core.Stats
}

// Config bounds each measurement.
type Config struct {
	// Timeout per single run; zero means none.
	Timeout time.Duration
	// MaxTuples bounds materialization in DI plans; zero means none.
	MaxTuples int64
	// Parallelism bounds the DI systems' intra-query workers (0 resolves
	// to GOMAXPROCS, 1 is serial — the same semantics as core.Options).
	Parallelism int
}

// Workload is a prepared query over a prepared document.
type Workload struct {
	Query xq.Expr
	Doc   xmltree.Forest
	// enc, compiled and sql are per-workload caches.
	enc      core.Catalog
	compiled *core.Query
}

// NewWorkload prepares a query text and document for repeated runs.
func NewWorkload(queryText string, doc xmltree.Forest) (*Workload, error) {
	e, err := xq.Parse(queryText)
	if err != nil {
		return nil, err
	}
	w := &Workload{Query: e, Doc: doc}
	w.enc = core.Catalog{xmark.DocName: interval.Encode(doc)}
	w.compiled = core.Compile(e, core.Options{})
	return w, nil
}

// Run measures one system on the workload.
func (w *Workload) Run(sys System, cfg Config) Outcome {
	out := Outcome{System: sys}
	start := time.Now()
	var forest xmltree.Forest
	var rel *interval.Relation
	var err error
	switch sys {
	case SysInterp:
		var budget *interp.Budget
		if cfg.Timeout > 0 {
			budget = &interp.Budget{Deadline: start.Add(cfg.Timeout)}
		}
		forest, err = interp.EvalBudget(w.Query, nil, interp.Catalog{xmark.DocName: w.Doc}, budget)
	case SysNLJ, SysMSJ:
		mode := core.ModeNLJ
		if sys == SysMSJ {
			mode = core.ModeMSJ
		}
		stats := &core.Stats{}
		rel, err = w.compiled.Eval(w.enc, core.Options{
			ForceJoinMode: mode,
			Stats:         stats,
			Timeout:       cfg.Timeout,
			MaxTuples:     cfg.MaxTuples,
			Parallelism:   cfg.Parallelism,
		})
		out.Stats = stats
	case SysSQL:
		forest, err = w.runSQL(cfg)
	default:
		err = fmt.Errorf("bench: unknown system %q", sys)
	}
	out.Seconds = time.Since(start).Seconds()
	if err != nil {
		if isBudget(err) {
			out.DNF = true
		} else {
			out.Err = err
		}
		return out
	}
	out.Trees = len(forest)
	if rel != nil {
		out.Trees, _ = rel.Shape()
	}
	return out
}

func (w *Workload) runSQL(cfg Config) (xmltree.Forest, error) {
	docs := map[string]xmltree.Forest{xmark.DocName: w.Doc}
	stmt, err := sqlgen.Generate(sqlgen.Plan(w.Query), sqlgen.DocWidths(docs))
	if err != nil {
		return nil, err
	}
	db, err := sqlgen.LoadDB(stmt, docs)
	if err != nil {
		return nil, err
	}
	if cfg.Timeout > 0 {
		db.SetDeadline(time.Now().Add(cfg.Timeout))
	}
	return sqlgen.Execute(stmt, db)
}

func isBudget(err error) bool {
	return errors.Is(err, engine.ErrBudgetExceeded) ||
		errors.Is(err, interp.ErrBudgetExceeded) ||
		errors.Is(err, minisql.ErrDeadlineExceeded)
}

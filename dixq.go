// Package dixq is an XQuery processor built on the dynamic interval
// encoding of DeHaan, Toman, Consens and Özsu, "A Comprehensive XQuery to
// SQL Translation using Dynamic Interval Encoding" (SIGMOD 2003).
//
// Queries in the paper's XQuery fragment (arbitrarily nested FLWR
// expressions, XPath steps, element constructors, structural comparison)
// are compiled either to plans over the dynamic interval encoding —
// executed by a built-in relational engine with the paper's special-purpose
// operators — or to a single SQL statement runnable on a generic relational
// engine (one is bundled).
//
// Quickstart:
//
//	doc, _ := dixq.ParseDocument(`<site>...</site>`)
//	cat := dixq.NewCatalog()
//	cat.Add("auction.xml", doc)
//	q, _ := dixq.ParseQuery(`for $p in document("auction.xml")/site/people/person
//	                         return $p/name/text()`)
//	res, _ := q.Run(context.Background(), cat, nil)
//	fmt.Println(res.XML())
package dixq

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"os"
	"strings"
	"time"

	"dixq/internal/core"
	"dixq/internal/engine"
	"dixq/internal/interp"
	"dixq/internal/interval"
	"dixq/internal/obs"
	"dixq/internal/plan"
	"dixq/internal/sqlgen"
	"dixq/internal/store"
	"dixq/internal/update"
	"dixq/internal/xmark"
	"dixq/internal/xmltree"
	"dixq/internal/xq"
)

// Document is an XML document or fragment, held in the one form the
// catalog and the DI engines use: its interval relation (Definition 3.1).
// The node tree is decoded on demand, per call, for the few callers that
// need one.
type Document struct {
	enc *interval.Relation
}

// tree decodes the document's forest. Relations reach a Document only
// from the encoder, the store's validated loader, the update operators
// or the DI engines, all of which produce valid encodings.
func (d *Document) tree() xmltree.Forest { return interval.MustDecode(d.enc) }

// ParseDocument parses XML text into a Document, shredding it straight
// into its interval relation without building a tree.
func ParseDocument(xmlText string) (*Document, error) {
	rel, err := interval.EncodeXML(xmlText)
	if err != nil {
		return nil, err
	}
	return &Document{enc: rel}, nil
}

// LoadDocumentFile reads a document from disk, dispatching on the file
// extension: ".dixq" files hold a stored interval encoding (see
// (*Document).SaveEncoded) and skip XML parsing entirely — the paper's
// "XML data already stored in a relational system" workflow — while
// anything else is shredded from XML text. The relation is never
// decoded into a tree; Catalog.Add indexes it.
func LoadDocumentFile(path string) (*Document, error) {
	if strings.HasSuffix(path, ".dixq") {
		rel, err := store.Load(path)
		if err != nil {
			return nil, err
		}
		return &Document{enc: rel}, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseDocument(string(data))
}

// SaveEncoded writes the document's interval encoding to a ".dixq" file:
// shred once, query many times without reparsing.
//
// Documents that accumulated key growth through updates are saved with
// their grown digit-vector keys as-is — except when repeated
// front-of-document inserts forced a negative leading digit, which the
// store format cannot represent: those are transparently re-encoded with
// the dense DFS counter (update.Rebuild) before saving, so every
// updatable document round-trips through the store.
func (d *Document) SaveEncoded(path string) error {
	rel := d.enc
	if update.NeedsRebuild(rel) {
		rebuilt, err := update.Rebuild(rel)
		if err != nil {
			return err
		}
		rel = rebuilt
	}
	return store.Save(path, rel)
}

// GenerateXMark generates an XMark-like benchmark document at the given
// scale factor (1.0 ≈ the original benchmark's full size), deterministically
// for a seed.
func GenerateXMark(scaleFactor float64, seed int64) *Document {
	return &Document{enc: interval.Encode(xmark.Generate(xmark.Config{ScaleFactor: scaleFactor, Seed: seed}))}
}

// XMark query texts from the paper's evaluation (Section 6), in the
// modified forms the paper measures.
const (
	XMarkQ8  = xmark.Q8
	XMarkQ9  = xmark.Q9
	XMarkQ13 = xmark.Q13
	// XMarkFigure1 is the running-example document of the paper.
	XMarkFigure1 = xmark.Figure1
)

// XML renders the document as XML text, written straight from the
// relation.
func (d *Document) XML() string { return interval.XML(d.enc) }

// IndentedXML renders the document as indented XML text.
func (d *Document) IndentedXML() string { return d.tree().Indent() }

// Nodes returns the number of nodes in the document.
func (d *Document) Nodes() int { return d.enc.Len() }

// Trees returns the number of top-level trees in the forest (one for a
// well-formed document; query results are often longer sequences).
func (d *Document) Trees() int {
	trees, _ := d.enc.Shape()
	return trees
}

// Depth returns the document's tree depth.
func (d *Document) Depth() int {
	_, depth := d.enc.Shape()
	return depth
}

// Equal reports structural equality with another document.
func (d *Document) Equal(o *Document) bool { return d.tree().Equal(o.tree()) }

// Encoding renders the document's interval encoding (the relation of
// Definition 3.1), one "(label, l, r)" tuple per line — the representation
// shown in Figure 4 of the paper.
func (d *Document) Encoding() string { return d.enc.String() }

// Engine selects how a query is evaluated.
type Engine int

const (
	// MergeJoin is the paper's DI-MSJ strategy, the default: dynamic
	// interval plans with decorrelated structural merge joins on every
	// eligible loop.
	MergeJoin Engine = iota
	// NestedLoop is DI-NLJ: the literal translation, nested-loop joins on
	// every loop.
	NestedLoop
	// Interpreter is the direct denotational-semantics evaluator — the
	// stand-in for the Galax/Kweelt-class systems of the evaluation.
	Interpreter
	// GenericSQL translates to a single SQL statement and executes it on
	// the bundled generic (untuned) relational engine.
	GenericSQL
)

// engineNames is the one table of engine names, indexed by Engine: the
// wire name used by flags, JSON request bodies and metric labels, and the
// display name String returns.
var engineNames = [...]struct{ label, display string }{
	MergeJoin:   {"di-msj", "DI-MSJ"},
	NestedLoop:  {"di-nlj", "DI-NLJ"},
	Interpreter: {"interp", "interpreter"},
	GenericSQL:  {"generic-sql", "generic-sql"},
}

func (e Engine) String() string {
	if e < 0 || int(e) >= len(engineNames) {
		return "invalid"
	}
	return engineNames[e].display
}

// Label returns the engine's wire name — what ParseEngine accepts and the
// server's metrics and traces label runs with ("unknown" for an invalid
// value).
func (e Engine) Label() string {
	if e < 0 || int(e) >= len(engineNames) {
		return "unknown"
	}
	return engineNames[e].label
}

// ParseEngine resolves an engine's wire name; the empty name selects the
// MergeJoin default.
func ParseEngine(name string) (Engine, error) {
	if name == "" {
		return MergeJoin, nil
	}
	var labels []string
	for e, n := range engineNames {
		if n.label == name {
			return Engine(e), nil
		}
		labels = append(labels, n.label)
	}
	return 0, fmt.Errorf("unknown engine %q (%s)", name, strings.Join(labels, ", "))
}

// Options configures a run. The zero value (or nil) selects the MergeJoin
// engine with no limits.
type Options struct {
	Engine Engine
	// Timeout bounds a run under every engine: Run gives the run's
	// context this deadline, and a run past it fails with
	// ErrBudgetExceeded. Zero means none beyond the caller's context.
	Timeout time.Duration
	// MaxTuples aborts DI evaluation after this many embedded tuples.
	MaxTuples int64
	// MemBudget bounds the accounted in-memory footprint of every group
	// reorder — sort, distinct, order by and the merge-join side sorts —
	// in bytes (DI engines); inputs over
	// the budget are sorted in batches, spilling runs of sorted positions
	// to SpillDir (the units themselves stay in memory). Zero
	// means unbounded — never spill. Unlike MaxTuples, exceeding MemBudget
	// never aborts a query: it degrades to disk and the result is
	// identical.
	MemBudget int64
	// SpillDir is where a budgeted sort writes its spill runs (files of
	// sorted positions) under MemBudget; empty means the OS temp directory.
	SpillDir string
}

// resolve is the common preamble of everything that plans or runs a
// query: it defaults a nil opts, pins the view's snapshot, and — for the
// DI engines (di true; the others have no plans) — maps the public options
// onto the internal executor's, attaching the snapshot's structural
// indexes and statistics so the compiler can plan index seeks and
// dataguide pruning and the estimator can read real cardinalities.
func resolve(cat View, opts *Options) (o *Options, snap *Snapshot, copts core.Options, di bool) {
	if opts == nil {
		opts = &Options{}
	}
	snap = cat.view()
	var mode core.Mode
	switch opts.Engine {
	case MergeJoin:
		mode = core.ModeMSJ
	case NestedLoop:
		mode = core.ModeNLJ
	default:
		return opts, snap, copts, false
	}
	return opts, snap, core.Options{
		ForceJoinMode: mode,
		Indexes:       snap.idx,
		DocStats:      snap.idx,
		MaxTuples:     opts.MaxTuples,
		MemBudget:     opts.MemBudget,
		SpillDir:      opts.SpillDir,
	}, true
}

// ErrBudgetExceeded reports that a run hit a deadline, Options.Timeout or
// its context's (any engine), or MaxTuples (DI engines). A cancelled run
// fails with context.Canceled instead.
var ErrBudgetExceeded = engine.ErrBudgetExceeded

// Stats is the per-phase cost breakdown of a DI run (Figure 10 of the
// paper): time in path extraction, join/environment machinery, and result
// construction, plus join-strategy counters.
type Stats = core.Stats

// Result is a query answer, held as its interval relation whichever
// engine produced it.
type Result struct {
	doc *Document
	// Stats holds the phase breakdown for DI engine runs (nil otherwise).
	Stats *Stats
	// Elapsed is the wall-clock evaluation time.
	Elapsed time.Duration
	// plan is the executed physical plan of a DI engine run.
	plan *plan.Node
}

// Operators returns a DI run's per-operator actuals in plan preorder —
// invocation counts, output rows, exclusive wall times that sum to the
// evaluation's total — and nil for the other engines (and for the nil
// Result of a failed run). Every run records them; the table is only
// built when asked for.
func (r *Result) Operators() []OperatorStat {
	if r == nil || r.plan == nil {
		return nil
	}
	return plan.Operators(r.plan, r.Stats.Run)
}

// Document returns the result as a document.
func (r *Result) Document() *Document { return r.doc }

// XML renders the result as XML text, written straight from the relation.
func (r *Result) XML() string { return r.doc.XML() }

// Query is a compiled query.
type Query struct {
	text string
	expr xq.Expr
	q    *core.Query
}

// ParseQuery parses and compiles a query in the paper's XQuery fragment.
func ParseQuery(text string) (*Query, error) {
	e, err := xq.Parse(text)
	if err != nil {
		return nil, err
	}
	return &Query{text: text, expr: e, q: core.Compile(e, core.Options{})}, nil
}

// Text returns the original query text.
func (q *Query) Text() string { return q.text }

// Core returns the desugared core-language form (Definition 2.2).
func (q *Query) Core() string { return q.expr.String() }

// Explain renders the physical plan the options' DI engine executes on the
// view's snapshot: the same tree a Run evaluates and ExplainAnalyze
// annotates, line for line. The other engines have no plan; for them
// Explain fails.
func (q *Query) Explain(cat View, opts *Options) (string, error) {
	opts, _, copts, di := resolve(cat, opts)
	if !di {
		return "", fmt.Errorf("dixq: explain requires a DI engine, got %s", opts.Engine)
	}
	return q.q.Plan(copts).Tree(), nil
}

// OperatorStat is one plan operator's execution actuals: invocation count,
// output rows, exclusive wall time and — from an ExplainAnalyze run —
// allocated bytes. The exclusive times of all operators sum to the run's
// total evaluation time.
type OperatorStat = plan.OperatorStat

// ExplainAnalyze is Run (DI engines only) with the analyze report
// requested: the same execution, additionally reading each operator's
// allocation delta. It returns the plan rendering annotated with each
// operator's actuals, plus the flattened per-operator statistics in plan
// preorder.
func (q *Query) ExplainAnalyze(ctx context.Context, cat View, opts *Options) (string, []OperatorStat, error) {
	res, err := q.run(ctx, cat, opts, true)
	if err != nil {
		return "", nil, err
	}
	return res.plan.TreeWithStats(res.Stats.Run), res.Operators(), nil
}

// Documents lists the document names the query references.
func (q *Query) Documents() []string { return xq.Documents(q.expr) }

// WidthBound reports the compile-time width analysis of Section 4.3 for
// the query over the catalog's documents: the bound on interval endpoint
// magnitudes (a possibly huge decimal — widths grow polynomially with loop
// nesting) and the number of integer key digits the engine will allocate
// per position, which is the paper's "sufficient number of integer-valued
// attributes".
func (q *Query) WidthBound(cat View) (bound string, digits int, err error) {
	widths := map[string]*big.Int{}
	for name, w := range cat.view().enc.Widths() {
		widths[name] = big.NewInt(w)
	}
	w, err := core.AnalyzeWidth(q.expr, widths)
	if err != nil {
		return "", 0, err
	}
	return w.Width.String(), w.Digits, nil
}

// SQL returns the paper's single-statement SQL translation of the query
// for the documents in the catalog (widths are fixed at translation time,
// so the statement is catalog-specific). The statement's base tables are
// (s, l, r) interval encodings, one per document, named doc_1, doc_2, ...
func (q *Query) SQL(cat View) (string, error) {
	stmt, err := q.sqlStatement(cat)
	if err != nil {
		return "", err
	}
	return stmt.SQL, nil
}

func (q *Query) sqlStatement(cat View) (*sqlgen.Statement, error) {
	return sqlgen.Generate(sqlgen.Plan(q.expr), cat.view().enc.Widths())
}

// Run evaluates the query against a catalog view. Passing a *Catalog
// pins its current snapshot for this one evaluation; passing a *Snapshot
// evaluates against exactly that version, regardless of writes published
// since it was pinned.
//
// ctx stops the run once it is done: the DI engines poll it at every
// operator entry, per environment in outer embedding and per record of a
// spilling sort, the interpreter and the SQL engine every 2^10 steps. A
// deadline (Options.Timeout's too) fails the run with ErrBudgetExceeded,
// a cancel with context.Canceled.
func (q *Query) Run(ctx context.Context, cat View, opts *Options) (*Result, error) {
	return q.run(ctx, cat, opts, false)
}

// run is the one evaluation behind Run and ExplainAnalyze, the one place
// an engine is chosen, and the one place Options.Timeout becomes a
// deadline; analyze requests the allocation readings of the analyze
// report.
func (q *Query) run(ctx context.Context, cat View, opts *Options, analyze bool) (*Result, error) {
	opts, snap, copts, di := resolve(cat, opts)
	if analyze && !di {
		return nil, fmt.Errorf("dixq: analyze requires a DI engine, got %s", opts.Engine)
	}
	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Timeout)
		defer cancel()
	}
	start := time.Now()
	res := &Result{}
	var rel *interval.Relation
	var f xmltree.Forest
	var err error
	switch {
	case di:
		res.Stats = &core.Stats{}
		copts.Stats, copts.Context = res.Stats, ctx
		if analyze {
			copts.Analyze = &plan.RunStats{}
		}
		res.plan = q.q.Plan(copts)
		rel, err = q.q.Eval(snap.enc, copts)
	case opts.Engine == Interpreter:
		f, err = interp.EvalBudget(ctx, q.expr, nil, snap.forests(q.Documents()), 0)
	case opts.Engine == GenericSQL:
		f, err = sqlgen.Run(ctx, q.expr, snap.forests(q.Documents()))
	default:
		err = fmt.Errorf("dixq: unknown engine %d", int(opts.Engine))
	}
	if errors.Is(err, context.DeadlineExceeded) {
		err = ErrBudgetExceeded
	}
	if err != nil {
		if errors.Is(err, ErrBudgetExceeded) {
			obs.BudgetRejections.Inc()
		}
		return nil, err
	}
	if !di {
		// The oracle legs answer in trees; the result is a relation all the
		// same.
		rel = interval.Encode(f)
	}
	res.doc, res.Elapsed = &Document{enc: rel}, time.Since(start)
	return res, nil
}

// Run is the one-call convenience: parse the query, run it on the catalog
// with no context beyond opts.Timeout.
func Run(query string, cat View, opts *Options) (*Result, error) {
	q, err := ParseQuery(query)
	if err != nil {
		return nil, err
	}
	return q.Run(context.Background(), cat, opts)
}

// IsUnsupportedSQL reports whether an error from SQL generation marks an
// operator outside the SQL backend's fragment (the DI engines support all
// operators).
func IsUnsupportedSQL(err error) bool { return errors.Is(err, sqlgen.ErrUnsupported) }

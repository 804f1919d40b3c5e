// Package server exposes a live document catalog over HTTP: documents
// load at startup or over PUT /docs/{name} (XML or pre-shredded .dixq
// stores), structural updates and drops publish new catalog snapshot
// versions, and XQuery POSTs answer from the snapshot they pinned at
// admission — readers never block on writers. A bounded admission queue
// with per-tenant budgets turns overload into fast 429s. It is the thin
// serving layer behind cmd/dixqd.
//
// Beyond query answering, the server is the process's observability
// surface (docs/API.md is the full HTTP reference): GET /metrics serves
// the obs.Default registry in the Prometheus text format, and GET
// /debug/traces returns the most recent sampled query traces — parse,
// plan-cache and execute spans, with per-plan-operator child spans for
// the DI engines, built from the run's own per-node actuals — the same
// numbers POST /explain {"analyze":true} reports, minus the allocation
// readings only the analyze request takes.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"dixq"
	"dixq/internal/exec"
	"dixq/internal/obs"
)

// Config bounds query execution for every request.
type Config struct {
	// Timeout per query; zero means none.
	Timeout time.Duration
	// MaxTuples per query for the DI engines; zero means none.
	MaxTuples int64
	// MemBudget bounds the accounted in-memory sort footprint per query for
	// the DI engines, in bytes; larger sorts spill runs to SpillDir instead
	// of aborting. Zero means unbounded.
	MemBudget int64
	// SpillDir is where external-sort runs are written under MemBudget;
	// empty means the OS temp directory.
	SpillDir string
	// Parallelism is the per-query worker bound applied when a request
	// leaves its parallelism field 0: it resolves like dixq.Options
	// (0 → runtime.GOMAXPROCS(0), 1 → serial, larger → that many
	// workers). Whatever each query requests, the workers of all
	// concurrent queries are drawn from one process-wide budget (package
	// exec), so total parallel workers never exceed that budget.
	Parallelism int
	// PlanCacheSize caps the LRU cache of compiled query plans, keyed by
	// (query text, engine). 0 means the default of 128; negative disables
	// caching.
	PlanCacheSize int
	// TraceSample samples 1 in every N POST /query requests into the trace
	// ring buffer served by GET /debug/traces. 0 means the default of
	// 64; negative disables tracing. A sampled query executes exactly like
	// an unsampled one — every run records its per-operator actuals — and
	// additionally pays for building its spans from them.
	TraceSample int
	// TraceBufferSize caps the trace ring buffer; 0 means the default of
	// 128. The buffer keeps the most recent traces, oldest overwritten.
	TraceBufferSize int
	// MaxConcurrent bounds the requests (queries and document writes)
	// executing simultaneously; excess requests wait in a bounded
	// admission queue and overflow gets 429 + Retry-After. 0 means
	// unlimited (no admission queue). This layers on the process-wide
	// exec worker budget: that budget bounds the workers admitted
	// queries draw, this bounds how many requests run at all.
	MaxConcurrent int
	// QueueDepth bounds the requests waiting for an execution slot when
	// MaxConcurrent is set: 0 means the default of 64, negative disables
	// queueing (a busy server rejects immediately).
	QueueDepth int
	// QueueTimeout bounds the time a request may wait in the admission
	// queue; 0 means the default of 2s.
	QueueTimeout time.Duration
	// TenantConcurrent bounds the concurrently admitted requests of each
	// tenant (the X-Tenant request header; absent means the shared
	// "default" tenant). 0 means unlimited.
	TenantConcurrent int
	// TenantMemBudget bounds the summed memory reservations of a
	// tenant's admitted requests, in bytes; each admitted request
	// reserves MemBudget (its per-query sort budget). 0 means unlimited;
	// it only binds when MemBudget is set.
	TenantMemBudget int64
	// TenantWorkers caps the effective per-query parallelism of every
	// tenant's requests, under the process-wide exec budget. 0 means no
	// extra cap.
	TenantWorkers int
	// DocDir, when set, permits PUT /docs/{name}?file=relative-path to
	// load .xml or .dixq files from this directory. Empty disables
	// server-side file loading.
	DocDir string
}

// defaultPlanCacheSize is the plan-cache capacity when Config leaves it 0.
const defaultPlanCacheSize = 128

// defaultTraceSample is the 1-in-N trace sampling rate when Config leaves
// TraceSample 0.
const defaultTraceSample = 64

// traceQueryLimit bounds the query text stored per trace, so the ring
// buffer's footprint stays small regardless of request sizes.
const traceQueryLimit = 2048

// Server answers queries and document writes against a live, versioned
// catalog. It is safe for concurrent use: the catalog publishes
// immutable snapshots (each request pins one at admission, so readers
// never block on writers), the engines share nothing per run, the plan
// cache is internally locked, and the trace buffer and sampler are
// atomic/locked.
type Server struct {
	cat     *dixq.Catalog
	cfg     Config
	plans   *planCache
	sampler *obs.Sampler
	traces  *obs.TraceBuffer
	adm     *admitter
	reindex *reindexer
}

// DocInfo describes one loaded document.
type DocInfo struct {
	Name  string `json:"name"`
	Nodes int    `json:"nodes"`
	Depth int    `json:"depth"`
}

// New builds a server over named documents (the initial catalog; more
// can be loaded, updated and dropped over HTTP) and starts its background
// reindexer, which re-derives a document's structural index and statistics
// after updates; Close stops it.
func New(docs map[string]*dixq.Document, cfg Config) *Server {
	cat := dixq.NewCatalog()
	size := cfg.PlanCacheSize
	if size == 0 {
		size = defaultPlanCacheSize
	}
	every := cfg.TraceSample
	if every == 0 {
		every = defaultTraceSample
	}
	if every < 0 {
		every = 0 // NewSampler returns the never-sampling nil sampler
	}
	s := &Server{
		cat:     cat,
		cfg:     cfg,
		plans:   newPlanCache(size),
		sampler: obs.NewSampler(every),
		traces:  obs.NewTraceBuffer(cfg.TraceBufferSize),
		adm:     newAdmitter(cfg),
		reindex: newReindexer(cat),
	}
	names := make([]string, 0, len(docs))
	for name := range docs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cat.Add(name, docs[name])
	}
	return s
}

// Catalog returns the server's live catalog, for embedding callers that
// load or mutate documents programmatically alongside the HTTP surface.
func (s *Server) Catalog() *dixq.Catalog { return s.cat }

// Drain puts the server into draining mode: every subsequent request is
// refused with 503 + Retry-After while already-admitted requests run to
// completion. cmd/dixqd calls this on SIGTERM before shutting the
// listener down.
func (s *Server) Drain() { s.adm.draining.Store(true) }

// PeakConcurrent reports the high-water mark of concurrently admitted
// requests — under a MaxConcurrent bound it can never exceed that bound
// (the mixed-load benchmark asserts exactly this).
func (s *Server) PeakConcurrent() int { return s.adm.Peak() }

// Close stops the background reindexer. The HTTP handler remains usable;
// updated documents then stay scan-backed until reindexed directly.
func (s *Server) Close() {
	if s.reindex != nil {
		s.reindex.close()
		s.reindex = nil
	}
}

// QueryRequest is the POST /query and POST /explain body.
type QueryRequest struct {
	// Query is the XQuery text.
	Query string `json:"query"`
	// Engine selects the evaluation strategy: "di-opt" (the cost-based
	// default), "di-msj", "di-nlj", "interp", or "generic-sql".
	Engine string `json:"engine,omitempty"`
	// Indent pretty-prints the result XML.
	Indent bool `json:"indent,omitempty"`
	// Analyze (POST /explain, DI engines) executes the query and returns
	// the plan annotated with per-operator actuals instead of the static
	// description.
	Analyze bool `json:"analyze,omitempty"`
	// Parallelism bounds the query's intra-query workers (DI engines):
	// 1 means serial, larger values bound the workers directly, and 0
	// falls back to the server's configured default (which itself
	// resolves 0 to runtime.GOMAXPROCS(0)). Results are identical at
	// any setting.
	Parallelism int `json:"parallelism,omitempty"`
}

// effectiveParallelism resolves the worker bound for a request: an
// explicit request value wins, 0 falls back to the server default, the
// canonical resolution (<= 0 → runtime.GOMAXPROCS(0)) applies, and the
// per-tenant worker cap clamps last — the same resolution the executor
// performs, so the value is also usable as a cache-key component and a
// trace attribute.
func effectiveParallelism(req *QueryRequest, cfg Config) int {
	par := req.Parallelism
	if par == 0 {
		par = cfg.Parallelism
	}
	par = exec.Resolve(par)
	if cfg.TenantWorkers > 0 && par > cfg.TenantWorkers {
		par = cfg.TenantWorkers
	}
	return par
}

// options maps the request's engine knobs onto dixq.Options.
func (req *QueryRequest) options(engine dixq.Engine, cfg Config) *dixq.Options {
	return &dixq.Options{
		Engine:      engine,
		Timeout:     cfg.Timeout,
		MaxTuples:   cfg.MaxTuples,
		MemBudget:   cfg.MemBudget,
		SpillDir:    cfg.SpillDir,
		Parallelism: effectiveParallelism(req, cfg),
	}
}

// QueryResponse is the POST /query success body.
type QueryResponse struct {
	XML       string     `json:"xml"`
	Trees     int        `json:"trees"`
	ElapsedMS float64    `json:"elapsed_ms"`
	Stats     *StatsJSON `json:"stats,omitempty"`
}

// StatsJSON is the Figure 10 phase breakdown for DI engine runs, plus the
// server's cumulative plan-cache counters.
type StatsJSON struct {
	PathsMS        float64 `json:"paths_ms"`
	JoinMS         float64 `json:"join_ms"`
	ConstructionMS float64 `json:"construction_ms"`
	MergeJoins     int     `json:"merge_joins"`
	NestedLoops    int     `json:"nested_loops"`
	EmbeddedTuples int64   `json:"embedded_tuples"`
	SpilledRuns    int64   `json:"spilled_runs"`
	SpilledBytes   int64   `json:"spilled_bytes"`
	PlanCacheHits  uint64  `json:"plan_cache_hits"`
	PlanCacheMiss  uint64  `json:"plan_cache_misses"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// TracesResponse is the GET /debug/traces body.
type TracesResponse struct {
	// SampleEvery is the configured 1-in-N sampling rate (0 when tracing
	// is disabled).
	SampleEvery int `json:"sample_every"`
	// Traces are the most recent sampled queries, newest first.
	Traces []obs.Trace `json:"traces"`
}

// Handler returns the HTTP routes:
//
//	GET    /healthz       liveness (never queued or refused)
//	GET    /docs          the loaded documents + catalog version
//	GET    /docs/{name}   one document's info
//	PUT    /docs/{name}   load or replace a document (XML body, or ?file=)
//	POST   /docs/{name}   apply a structural update (UpdateRequest)
//	DELETE /docs/{name}   drop a document
//	GET    /metrics       Prometheus text-format metrics (obs.Default)
//	GET    /debug/traces  recent sampled query and catalog traces (?n=K)
//	POST   /query         run a query (QueryRequest -> QueryResponse)
//	POST   /explain       describe the plan for a query
//	POST   /sql           return the SQL translation of a query
//
// Queries and document writes pass admission control (429 + Retry-After
// on overload, 503 while draining); the read-only endpoints do not.
// Every error body is JSON ({"error": ...}): unknown paths get 404,
// wrong-method hits on registered paths get 405 with an Allow header.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	metrics := obs.Default.Handler()
	type route struct {
		method string
		h      http.HandlerFunc
	}
	paths := []struct {
		path   string
		routes []route
	}{
		{"/healthz", []route{{"GET", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			w.WriteHeader(http.StatusOK)
			fmt.Fprintln(w, "ok")
		}}}},
		{"/docs", []route{{"GET", s.handleDocs}}},
		{"/docs/{name}", []route{
			{"GET", s.handleDocGet},
			{"PUT", s.admitted(s.handleDocPut)},
			{"POST", s.admitted(s.handleDocUpdate)},
			{"DELETE", s.admitted(s.handleDocDelete)},
		}},
		{"/metrics", []route{{"GET", metrics.ServeHTTP}}},
		{"/debug/traces", []route{{"GET", s.handleTraces}}},
		{"/query", []route{{"POST", s.admitted(s.handleQuery)}}},
		{"/explain", []route{{"POST", s.admitted(s.handleExplain)}}},
		{"/sql", []route{{"POST", s.admitted(s.handleSQL)}}},
	}
	for _, p := range paths {
		allow := make([]string, 0, len(p.routes))
		for _, rt := range p.routes {
			mux.HandleFunc(rt.method+" "+p.path, rt.h)
			allow = append(allow, rt.method)
		}
		// The method-less pattern catches every other verb on the same
		// path: a JSON 405 with Allow, instead of the mux's plain-text
		// default.
		mux.HandleFunc(p.path, methodNotAllowed(strings.Join(allow, ", ")))
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "no such endpoint: " + r.URL.Path})
	})
	return mux
}

// admitted wraps a handler with admission control: the request passes the
// bounded queue and its tenant's budgets before the handler runs, and the
// slot is released when the handler returns. Refusals are 429 (or 503
// while draining) with a Retry-After hint.
func (s *Server) admitted(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		release, aerr := s.adm.admit(tenantOf(r))
		if aerr != nil {
			obs.AdmissionRejections.With(aerr.reason).Inc()
			w.Header().Set("Retry-After", strconv.Itoa(aerr.retryAfter))
			writeJSON(w, aerr.status, errorResponse{Error: aerr.msg})
			return
		}
		defer release()
		h(w, r)
	}
}

// methodNotAllowed answers a wrong-method hit on a registered route.
func methodNotAllowed(allow string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Allow", allow)
		writeJSON(w, http.StatusMethodNotAllowed,
			errorResponse{Error: fmt.Sprintf("method %s not allowed on %s (allow: %s)", r.Method, r.URL.Path, allow)})
	}
}

// decodeInfo reports what decode did, for trace spans.
type decodeInfo struct {
	// engine is the request's parsed engine.
	engine dixq.Engine
	// parseNS is the parse+compile time (0 on a cache hit).
	parseNS int64
	// cacheHit reports whether the compiled plan came from the cache.
	cacheHit bool
}

// decode parses the request body and resolves the compiled plan through
// the cache. The engine name is validated first, so a request that will be
// rejected causes no cache traffic. version is the pinned catalog
// snapshot's version: the cache key includes it, so a plan compiled
// against one snapshot can never serve a request pinned to a catalog that
// has since changed.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, version uint64) (*QueryRequest, *dixq.Query, decodeInfo, bool) {
	var info decodeInfo
	var req QueryRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request body: " + err.Error()})
		return nil, nil, info, false
	}
	if req.Query == "" {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "missing query"})
		return nil, nil, info, false
	}
	var err error
	if info.engine, err = dixq.ParseEngine(req.Engine); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return nil, nil, info, false
	}
	key := planKey(&req, info.engine, s.cfg, version)
	if q, ok := s.plans.get(key); ok {
		info.cacheHit = true
		return &req, q, info, true
	}
	start := time.Now()
	q, err := dixq.ParseQuery(req.Query)
	info.parseNS = int64(time.Since(start))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return nil, nil, info, false
	}
	s.plans.put(key, q)
	return &req, q, info, true
}

// truncateQuery bounds the query text stored in a trace.
func truncateQuery(q string) string {
	if len(q) <= traceQueryLimit {
		return q
	}
	return q[:traceQueryLimit] + "…"
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	obs.ActiveQueries.Inc()
	start := time.Now()
	outcome, engine := "error", "unknown"
	var tr *obs.Trace
	if s.sampler.Sample() {
		tr = &obs.Trace{StartUnixNS: start.UnixNano()}
	}
	defer func() {
		obs.ActiveQueries.Dec()
		obs.QueryDuration.Observe(time.Since(start))
		obs.Queries.With(engine, outcome).Inc()
		if tr != nil {
			tr.Engine = engine
			tr.Outcome = outcome
			tr.DurationNS = int64(time.Since(start))
			s.traces.Add(*tr)
			obs.TracesSampled.Inc()
		}
	}()

	// Pin the catalog snapshot: everything below — plan-cache key,
	// compilation, execution — sees exactly this version, however many
	// writes publish meanwhile.
	snap := s.cat.Snapshot()
	obs.SnapshotsPinned.Inc()
	defer obs.SnapshotsPinned.Dec()
	req, q, info, ok := s.decode(w, r, snap.Version())
	if !ok {
		outcome = "bad_request"
		return
	}
	if tr != nil {
		tr.Query = truncateQuery(req.Query)
		if !info.cacheHit {
			tr.Spans = append(tr.Spans, obs.Span{Name: "parse-compile", DurationNS: info.parseNS})
		}
		tr.Spans = append(tr.Spans, obs.Span{
			Name:  "plan-cache",
			Attrs: map[string]string{"hit": strconv.FormatBool(info.cacheHit)},
		})
	}
	engine = info.engine.Label()

	execStart := time.Now()
	res, err := q.Run(snap, req.options(info.engine, s.cfg))
	if tr != nil {
		span := obs.Span{
			Name:       "execute",
			DurationNS: int64(time.Since(execStart)),
			Attrs: map[string]string{
				"parallel_workers": strconv.Itoa(effectiveParallelism(req, s.cfg)),
			},
		}
		// A DI run records its per-operator actuals whether or not it was
		// sampled; the trace carries them as one child span per operator
		// (none for a failed run or a non-DI engine).
		for _, op := range res.Operators() {
			span.Children = append(span.Children, obs.Span{
				Name:       op.Op,
				DurationNS: int64(op.Time),
				Calls:      op.Calls,
				Rows:       op.Rows,
				Spilled:    op.Spilled,
				Skipped:    op.Skipped,
				Workers:    op.Workers,
			})
		}
		if err != nil {
			span.Attrs["error"] = err.Error()
		}
		tr.Spans = append(tr.Spans, span)
	}
	if err != nil {
		status := http.StatusUnprocessableEntity
		if errors.Is(err, dixq.ErrBudgetExceeded) {
			status = http.StatusGatewayTimeout
			outcome = "budget"
		}
		writeJSON(w, status, errorResponse{Error: err.Error()})
		return
	}
	outcome = "ok"
	out := QueryResponse{
		XML:       res.XML(),
		Trees:     res.Document().Trees(),
		ElapsedMS: float64(res.Elapsed.Microseconds()) / 1000,
	}
	if req.Indent {
		out.XML = res.Document().IndentedXML()
	}
	if st := res.Stats; st != nil {
		hits, misses := s.plans.counts()
		out.Stats = &StatsJSON{
			PathsMS:        ms(st.Paths),
			JoinMS:         ms(st.Join),
			ConstructionMS: ms(st.Construction),
			MergeJoins:     st.MergeJoins,
			NestedLoops:    st.NestedLoops,
			EmbeddedTuples: st.EmbeddedTuples,
			SpilledRuns:    st.SpilledRuns,
			SpilledBytes:   st.SpilledBytes,
			PlanCacheHits:  hits,
			PlanCacheMiss:  misses,
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	n := 0
	if v := r.URL.Query().Get("n"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed < 0 {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad n parameter: " + v})
			return
		}
		n = parsed
	}
	every := 0
	if s.sampler != nil {
		every = s.cfg.TraceSample
		if every == 0 {
			every = defaultTraceSample
		}
	}
	writeJSON(w, http.StatusOK, TracesResponse{SampleEvery: every, Traces: s.traces.Last(n)})
}

// ExplainResponse is the POST /explain success body. Plan and Core are
// always present; the remaining fields are filled in analyze mode, where
// the query is executed and the per-operator actuals are reported.
type ExplainResponse struct {
	Plan string `json:"plan"`
	Core string `json:"core"`
	// Optimizer is the cost-based optimizer's report — join graph,
	// estimates, and per-loop decisions with both candidates' costs —
	// present when the requested engine is di-opt (the default).
	Optimizer *dixq.OptimizerReport `json:"optimizer,omitempty"`
	// AnalyzedPlan is the executed physical plan annotated with each
	// operator's actuals.
	AnalyzedPlan string `json:"analyzed_plan,omitempty"`
	// Operators flattens the same actuals in plan preorder. The times are
	// exclusive, so they sum to TotalMS.
	Operators []OperatorJSON `json:"operators,omitempty"`
	// TotalMS is the run's total evaluation time: the sum of the operator
	// times.
	TotalMS float64 `json:"total_ms,omitempty"`
}

// OperatorJSON is one operator's execution actuals.
type OperatorJSON struct {
	ID      int    `json:"id"`
	Op      string `json:"op"`
	Calls   int    `json:"calls"`
	Rows    int64  `json:"rows"`
	Spilled int64  `json:"spilled"`
	// Skipped is the number of relation tuples an index access path never
	// read (index seeks and dataguide-pruned chains).
	Skipped int64 `json:"skipped,omitempty"`
	Workers int   `json:"workers,omitempty"`
	// Partitions is the key-range partition count of the operator's
	// exchange or probe repartitioning (omitted for operators that never
	// partition).
	Partitions int     `json:"partitions,omitempty"`
	TimeMS     float64 `json:"time_ms"`
	Allocs     int64   `json:"allocs"`
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	snap := s.cat.Snapshot()
	obs.SnapshotsPinned.Inc()
	defer obs.SnapshotsPinned.Dec()
	req, q, info, ok := s.decode(w, r, snap.Version())
	if !ok {
		return
	}
	opts := req.options(info.engine, s.cfg)
	// The optimizer report is nil for forced and non-DI engines: those
	// runs bypass the optimizer by design.
	out := ExplainResponse{Plan: q.Explain(), Core: q.Core(), Optimizer: q.OptimizerReport(snap, opts)}
	if req.Analyze {
		text, ops, err := q.ExplainAnalyze(snap, opts)
		if err != nil {
			status := http.StatusUnprocessableEntity
			if errors.Is(err, dixq.ErrBudgetExceeded) {
				status = http.StatusGatewayTimeout
			}
			writeJSON(w, status, errorResponse{Error: err.Error()})
			return
		}
		out.AnalyzedPlan = text
		for _, op := range ops {
			j := OperatorJSON{
				ID:         op.ID,
				Op:         op.Op,
				Calls:      op.Calls,
				Rows:       op.Rows,
				Spilled:    op.Spilled,
				Skipped:    op.Skipped,
				Workers:    op.Workers,
				Partitions: op.Partitions,
				TimeMS:     ms(op.Time),
				Allocs:     op.Allocs,
			}
			out.Operators = append(out.Operators, j)
			// The reported total is the sum of the reported per-operator
			// values (not the raw durations), so the response is internally
			// consistent under the millisecond rounding.
			out.TotalMS += j.TimeMS
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleSQL(w http.ResponseWriter, r *http.Request) {
	snap := s.cat.Snapshot()
	obs.SnapshotsPinned.Inc()
	defer obs.SnapshotsPinned.Dec()
	_, q, _, ok := s.decode(w, r, snap.Version())
	if !ok {
		return
	}
	sql, err := q.SQL(snap)
	if err != nil {
		status := http.StatusUnprocessableEntity
		if dixq.IsUnsupportedSQL(err) {
			status = http.StatusNotImplemented
		}
		writeJSON(w, status, errorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"sql": sql})
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

package obs

// Default is the process-wide registry. Package server exposes it at GET
// /metrics, cmd/dibench snapshots it with -metricsdump, and the engine
// layers below record into the metrics declared here.
var Default = NewRegistry()

// The dixq metric set. Counters are cumulative since process start;
// everything an individual query reports through Result.Stats or
// ExplainAnalyze has an aggregate twin here, so fleet dashboards and
// single-query debugging read the same quantities.
var (
	// Queries counts served queries by engine ("di-msj", "di-nlj",
	// "interp", "generic-sql") and outcome ("ok", "error",
	// "budget", "canceled", "bad_request"). "canceled" is a run whose
	// request context ended: its client went away, or Server.Close.
	Queries = Default.NewCounterVec("dixq_queries_total",
		"Queries served, by engine and outcome.", "engine", "outcome")
	// QueryDuration is the end-to-end latency of successful and failed
	// query executions (parse and plan-cache time included).
	QueryDuration = Default.NewHistogram("dixq_query_duration_seconds",
		"End-to-end query latency in seconds.", nil)
	// ActiveQueries is the number of queries currently executing.
	ActiveQueries = Default.NewGauge("dixq_active_queries",
		"Queries currently executing.")
	// PlanCacheHits / PlanCacheMisses mirror the server plan cache's
	// internal counters as scrapeable series.
	PlanCacheHits = Default.NewCounter("dixq_plan_cache_hits_total",
		"Compiled-plan cache hits.")
	PlanCacheMisses = Default.NewCounter("dixq_plan_cache_misses_total",
		"Compiled-plan cache misses (query parsed and compiled).")
	// SortedBytes is the accounted footprint that passed through the
	// budgeted sorts — every group reorder under a memory budget, in
	// memory or spilled. Unbudgeted sorts do not account footprints and
	// are not counted.
	SortedBytes = Default.NewCounter("dixq_sort_bytes_total",
		"Accounted bytes sorted by budgeted sorts (every group reorder under a memory budget).")
	// SpilledRuns / SpilledBytes count the spill runs budgeted sorts
	// write to disk and the accounted footprint of the units they order.
	SpilledRuns = Default.NewCounter("dixq_spilled_runs_total",
		"Sort runs spilled to disk.")
	SpilledBytes = Default.NewCounter("dixq_spilled_bytes_total",
		"Accounted bytes of the sort units ordered by spilled runs.")
	// RunBytesWritten / RunBytesRead are the on-disk I/O volume of spill
	// runs: files of uvarint sort positions (file size, not accounted
	// footprint).
	RunBytesWritten = Default.NewCounter("dixq_spill_run_bytes_written_total",
		"Bytes of sort positions written to spill run files.")
	RunBytesRead = Default.NewCounter("dixq_spill_run_bytes_read_total",
		"Bytes of sort positions read back from spill run files.")
	// BudgetRejections counts evaluations aborted by MaxTuples or by a
	// deadline of the run's context, Timeout's included (the budgets that
	// abort; MemBudget degrades to disk instead and shows up in the spill
	// counters). A cancelled run is not a budget rejection.
	BudgetRejections = Default.NewCounter("dixq_budget_rejections_total",
		"Evaluations aborted by MaxTuples or a deadline (Timeout); cancelled runs are not counted.")
	// TracesSampled counts queries that produced a trace.
	TracesSampled = Default.NewCounter("dixq_traces_sampled_total",
		"Queries sampled into the trace ring buffer.")
	// ProbePairs counts merge-join output pairs produced by the probe
	// phase.
	ProbePairs = Default.NewCounter("dixq_probe_pairs_total",
		"Merge-join pairs produced by the probe phase.")
	// IndexSeeks counts path chains served from a document's structural
	// index as range reads instead of relation scans.
	IndexSeeks = Default.NewCounter("dixq_index_seeks_total",
		"Path chains served as index range reads.")
	// IndexPrunedPaths counts path chains the dataguide proved empty, which
	// therefore never executed at all.
	IndexPrunedPaths = Default.NewCounter("dixq_index_pruned_paths_total",
		"Path chains pruned to empty by the dataguide.")
	// OptPlans counts plans the estimator annotated (one per DI plan
	// compiled with statistics).
	OptPlans = Default.NewCounter("dixq_opt_plans_total",
		"Plans annotated with statistics-fed row estimates, one per plan compiled with statistics.")
	// CatalogVersion is the monotonic version of the most recently
	// published catalog snapshot; every document load, update, drop or
	// reindex advances it.
	CatalogVersion = Default.NewGauge("dixq_catalog_version",
		"Version of the most recently published catalog snapshot.")
	// CatalogDocs is the document count of the current catalog snapshot.
	CatalogDocs = Default.NewGauge("dixq_catalog_documents",
		"Documents in the current catalog snapshot.")
	// DocUpdates counts document lifecycle operations applied through the
	// server, by operation ("put", "update", "drop").
	DocUpdates = Default.NewCounterVec("dixq_doc_updates_total",
		"Document lifecycle operations applied to the catalog, by operation.", "op")
	// HandlerPanics counts requests whose handler panicked; the server
	// recovered each panic and answered 500.
	HandlerPanics = Default.NewCounter("dixq_handler_panics_total",
		"Requests whose handler panicked, recovered and answered 500.")
	// AdmissionRejections counts requests refused by admission control, by
	// reason ("queue_full", "queue_timeout", "tenant_concurrency",
	// "tenant_memory", "draining", "canceled": the request's context
	// ended while it was queued).
	AdmissionRejections = Default.NewCounterVec("dixq_admission_rejections_total",
		"Requests rejected by admission control, by reason.", "reason")
	// AdmissionQueueDepth is the number of requests currently waiting for
	// an execution slot in the admission queue.
	AdmissionQueueDepth = Default.NewGauge("dixq_admission_queue_depth",
		"Requests currently waiting in the admission queue.")
	// AdmissionWait is the time admitted requests spent queued before
	// acquiring an execution slot (requests admitted without queueing do
	// not observe).
	AdmissionWait = Default.NewHistogram("dixq_admission_wait_seconds",
		"Time requests spent in the admission queue before admission.", nil)
	// SnapshotsPinned is the number of catalog snapshots currently pinned
	// by in-flight requests. Old snapshot versions stay reachable (and
	// their memory live) exactly while this is nonzero for them.
	SnapshotsPinned = Default.NewGauge("dixq_snapshots_pinned",
		"Catalog snapshots currently pinned by in-flight requests.")
)

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
	// "interp", "generic-sql") and outcome ("ok", "error", "budget",
	// "bad_request").
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
	// SpilledRuns / SpilledBytes count external-sort runs written to disk
	// under a memory budget.
	SpilledRuns = Default.NewCounter("dixq_spilled_runs_total",
		"External-sort runs spilled to disk.")
	SpilledBytes = Default.NewCounter("dixq_spilled_bytes_total",
		"Accounted bytes of records spilled to disk runs.")
	// RunBytesWritten / RunBytesRead are the on-disk I/O volume of spill
	// runs in the DIXQR1 encoding (encoded size, not accounted footprint).
	RunBytesWritten = Default.NewCounter("dixq_spill_run_bytes_written_total",
		"Encoded bytes written to spill run files.")
	RunBytesRead = Default.NewCounter("dixq_spill_run_bytes_read_total",
		"Encoded bytes read back from spill run files.")
	// BudgetRejections counts evaluations aborted by MaxTuples or Timeout
	// (the budgets that abort; MemBudget degrades to disk instead and
	// shows up in the spill counters).
	BudgetRejections = Default.NewCounter("dixq_budget_rejections_total",
		"Evaluations aborted by the MaxTuples or Timeout budget.")
	// TracesSampled counts queries that produced a trace.
	TracesSampled = Default.NewCounter("dixq_traces_sampled_total",
		"Queries sampled into the trace ring buffer.")
	// ParallelWorkersActive is the number of extra intra-query workers
	// (goroutines beyond the query's own) currently running across the
	// process — bounded by the exec package's process-wide budget.
	ParallelWorkersActive = Default.NewGauge("dixq_parallel_workers_active",
		"Extra intra-query worker goroutines currently running.")
	// ParallelTasks counts morsels (tasks) executed by the worker pool, by
	// worker slot within a Run call — the per-worker view of how evenly
	// morsel pulling balanced the work.
	ParallelTasks = Default.NewCounterVec("dixq_parallel_tasks_total",
		"Morsels executed by the intra-query worker pool, by worker slot.", "worker")
	// ParallelChains counts fused path chains that executed morsel-parallel
	// (as opposed to the serial chain path).
	ParallelChains = Default.NewCounter("dixq_parallel_chains_total",
		"Fused path chains executed by the parallel morsel runner.")
	// ExchangePartitions counts key-range partitions merged by the
	// exchange repartitioning of the parallel structural sort, by worker
	// slot — how the sort's merge phase spread across workers.
	ExchangePartitions = Default.NewCounterVec("dixq_exchange_partitions_total",
		"Key-range partitions merged by the exchange sort repartitioning, by worker slot.", "worker")
	// ProbePairs counts merge-join output pairs produced by the probe
	// phase, by worker slot; at parallelism 1 every pair lands on worker
	// 0, so the label spread is the direct view of probe partitioning.
	ProbePairs = Default.NewCounterVec("dixq_probe_pairs_total",
		"Merge-join pairs produced by the probe phase, by worker slot.", "worker")
	// IndexSeeks counts path chains served from a document's structural
	// index as range reads instead of relation scans.
	IndexSeeks = Default.NewCounter("dixq_index_seeks_total",
		"Path chains served as index range reads.")
	// IndexScanFallbacks counts index-path nodes that fell back to the
	// scan-backed chain at run time (document binding filtered or replaced,
	// or the chain ran under refined environments).
	IndexScanFallbacks = Default.NewCounter("dixq_index_scan_fallbacks_total",
		"Index-path nodes that fell back to the scan-backed chain.")
	// IndexPrunedPaths counts path chains the dataguide proved empty, which
	// therefore never executed at all.
	IndexPrunedPaths = Default.NewCounter("dixq_index_pruned_paths_total",
		"Path chains pruned to empty by the dataguide.")
	// OptPlans counts plans that went through the cost-based optimizer.
	OptPlans = Default.NewCounter("dixq_opt_plans_total",
		"Plans optimized by the cost-based join-graph optimizer.")
	// OptLoopsCosted counts for-loops whose join algorithm was chosen by
	// cost (merge join vs nested loop) rather than forced by mode.
	OptLoopsCosted = Default.NewCounter("dixq_opt_loops_costed_total",
		"For-loops whose join algorithm was chosen by estimated cost.")
	// OptDemotions counts loops the optimizer demoted from the merge-join
	// evaluation to the literal nested loop because the estimated input
	// was too small to amortize the sorts.
	OptDemotions = Default.NewCounter("dixq_opt_demotions_total",
		"Merge-join loops demoted to nested loops by the cost model.")
	// CatalogVersion is the monotonic version of the most recently
	// published catalog snapshot; every document load, update, drop,
	// reindex or stats refresh advances it.
	CatalogVersion = Default.NewGauge("dixq_catalog_version",
		"Version of the most recently published catalog snapshot.")
	// CatalogDocs is the document count of the current catalog snapshot.
	CatalogDocs = Default.NewGauge("dixq_catalog_documents",
		"Documents in the current catalog snapshot.")
	// DocUpdates counts document lifecycle operations applied through the
	// server, by operation ("put", "update", "drop", "reindex").
	DocUpdates = Default.NewCounterVec("dixq_doc_updates_total",
		"Document lifecycle operations applied to the catalog, by operation.", "op")
	// AdmissionRejections counts requests refused by admission control, by
	// reason ("queue_full", "queue_timeout", "tenant_concurrency",
	// "tenant_memory", "draining").
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

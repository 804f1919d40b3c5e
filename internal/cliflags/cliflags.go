// Package cliflags declares the command-line flag sets of the repo's
// binaries (cmd/dixqd, cmd/dibench) in one importable place. The mains
// register their flags through these constructors, and the root
// documentation guard builds the same FlagSets to cross-check every
// registered flag against the tables in docs/API.md — in both
// directions — so a flag added to a main without a documentation row
// (or a documented flag that no longer exists) fails `go test ./...`
// rather than drifting silently.
package cliflags

import (
	"flag"
	"strings"
	"time"
)

// StringList is a repeatable string flag (e.g. dixqd -doc a=x -doc b=y).
type StringList []string

func (l *StringList) String() string { return strings.Join(*l, ",") }

// Set appends one occurrence's value.
func (l *StringList) Set(v string) error {
	*l = append(*l, v)
	return nil
}

// DixqdConfig holds the parsed dixqd command line.
type DixqdConfig struct {
	Addr             string
	Docs             StringList
	DocDir           string
	Timeout          time.Duration
	MaxTuples        int64
	MemBudget        int64
	SpillDir         string
	Parallelism      int
	MaxConcurrent    int
	QueueDepth       int
	QueueTimeout     time.Duration
	TenantConcurrent int
	TenantMemBudget  int64
	TenantWorkers    int
	DrainTimeout     time.Duration
	TraceSample      int
	PprofAddr        string
}

// Dixqd registers the dixqd flags on fs and returns the destination
// config, which is populated when fs is parsed.
func Dixqd(fs *flag.FlagSet) *DixqdConfig {
	c := &DixqdConfig{}
	fs.StringVar(&c.Addr, "addr", ":8080", "listen address")
	fs.Var(&c.Docs, "doc", "document binding name=path (.xml or .dixq, repeatable; may be omitted — documents can be loaded over HTTP)")
	fs.StringVar(&c.DocDir, "docdir", "", "directory PUT /docs/{name}?file= may load documents from (empty = server-side file loading off)")
	fs.DurationVar(&c.Timeout, "timeout", time.Minute, "per-query budget")
	fs.Int64Var(&c.MaxTuples, "maxtuples", 40_000_000, "per-query DI materialization budget (0 = unlimited)")
	fs.Int64Var(&c.MemBudget, "membudget", 0, "per-query DI sort memory budget in bytes; larger sorts spill to disk (0 = unbounded)")
	fs.StringVar(&c.SpillDir, "spilldir", "", "directory for external-sort spill runs (default: OS temp dir)")
	fs.IntVar(&c.Parallelism, "parallelism", 0, "per-query worker bound for requests that do not set one (0 = GOMAXPROCS, 1 = serial)")
	fs.IntVar(&c.MaxConcurrent, "max-concurrent", 0, "requests executing at once; excess queues, overflow gets 429 (0 = unlimited)")
	fs.IntVar(&c.QueueDepth, "queue-depth", 0, "requests waiting for an execution slot (0 = default 64, negative = no queue)")
	fs.DurationVar(&c.QueueTimeout, "queue-timeout", 0, "longest a request may wait in the admission queue (0 = default 2s)")
	fs.IntVar(&c.TenantConcurrent, "tenant-concurrent", 0, "per-tenant concurrent request bound (0 = unlimited)")
	fs.Int64Var(&c.TenantMemBudget, "tenant-membudget", 0, "per-tenant total memory reservation in bytes; each request reserves -membudget (0 = unlimited)")
	fs.IntVar(&c.TenantWorkers, "tenant-workers", 0, "per-tenant cap on each query's parallel workers (0 = no extra cap)")
	fs.DurationVar(&c.DrainTimeout, "drain-timeout", 15*time.Second, "how long graceful shutdown waits for in-flight requests")
	fs.IntVar(&c.TraceSample, "trace-sample", 0, "sample 1 in N queries into /debug/traces (0 = default 64, negative = off)")
	fs.StringVar(&c.PprofAddr, "pprof", "", "serve net/http/pprof on this extra address (e.g. localhost:6060; empty = off)")
	return c
}

// DibenchConfig holds the parsed dibench command line.
type DibenchConfig struct {
	Exp         string
	Scales      string
	Systems     string
	Timeout     time.Duration
	MaxTuples   int64
	MetricsDump string
	Parallelism int
}

// Dibench registers the dibench flags on fs and returns the destination
// config. experiments is the valid -exp value list for the usage string
// (the flag names never depend on it, so the docs guard may pass nil).
func Dibench(fs *flag.FlagSet, experiments []string) *DibenchConfig {
	c := &DibenchConfig{}
	fs.StringVar(&c.Exp, "exp", "all", "experiment: all, "+strings.Join(experiments, ", "))
	fs.StringVar(&c.Scales, "scales", "", "comma-separated XMark scale factors (default harness set)")
	fs.StringVar(&c.Systems, "systems", "", "comma-separated systems (default: all)")
	fs.DurationVar(&c.Timeout, "timeout", 60*time.Second, "per-run budget; exceeding runs report DNF")
	fs.Int64Var(&c.MaxTuples, "maxtuples", 40_000_000, "per-run materialization budget for DI plans (0 = unlimited)")
	fs.StringVar(&c.MetricsDump, "metricsdump", "", "write cumulative runtime metrics (Prometheus text format) to this file on exit")
	fs.IntVar(&c.Parallelism, "parallelism", 1, "intra-query worker bound for DI harness runs (0 = GOMAXPROCS, 1 = serial)")
	return c
}

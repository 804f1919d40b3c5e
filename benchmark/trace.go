package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"dixq"
	"dixq/internal/core"
	"dixq/internal/exec"
	"dixq/internal/index"
	"dixq/internal/interval"
	"dixq/internal/obs"
	"dixq/internal/opt"
	"dixq/internal/plan"
	"dixq/internal/server"
	"dixq/internal/stats"
	"dixq/internal/store"
	"dixq/internal/xmltree"
	"dixq/internal/xq"
)

// span is one timed interval of the traced run, as written to trace.json.
// Spans of one client operation share its op id; parent links a span to
// the span that caused it (0: none). A layer's self time is its span's
// duration minus its children's.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	// StartNS and EndNS are offsets from the start of the traced window.
	// Plan-operator spans carry exclusive times, not intervals: they are
	// laid out back to back, in plan preorder, from their execute span's
	// start.
	StartNS int64            `json:"start_ns"`
	EndNS   int64            `json:"end_ns"`
	Attrs   map[string]int64 `json:"attrs,omitempty"`
}

// tracer keeps the spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) add(parent, op int, name, layer string, start, end int64, attrs map[string]int64) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Layer: layer, StartNS: start, EndNS: end, Attrs: attrs})
	return id
}

// counts drops the zero entries of an attribute set.
func counts(kv map[string]int64) map[string]int64 {
	for k, v := range kv {
		if v == 0 {
			delete(kv, k)
		}
	}
	return kv
}

// probe times one direct call into a layer's public function.
func (t *tracer) probe(name, layer string, fn func()) time.Duration {
	start := time.Since(t.t0)
	fn()
	end := time.Since(t.t0)
	t.add(0, 0, name, layer, int64(start), int64(end), nil)
	return end - start
}

// operatorGroups maps a plan operator name (as /debug/traces and POST
// /explain print it, without its bracketed detail) to the per-layer metric
// its exclusive time is counted under. Operators not listed here —
// predicates and environment plumbing — go to core.other_ms.
var operatorGroups = map[string]string{
	"scan": "pipeline.path_ms", "roots": "pipeline.path_ms", "select": "pipeline.path_ms",
	"seltext": "pipeline.path_ms", "children": "pipeline.path_ms", "data": "pipeline.path_ms",
	"head": "pipeline.path_ms", "tail": "pipeline.path_ms", "subtrees-dfs": "pipeline.path_ms",
	"index-seek": "index.seek_ms", "index-prune": "index.seek_ms",
	"for-merge-join":  "core.msj_ms",
	"for-nested-loop": "core.nlj_ms", "embed-outer": "core.nlj_ms",
	"count":     "core.aggregate_ms",
	"construct": "core.construct_ms", "concat": "core.construct_ms", "const": "core.construct_ms",
	"structural-sort": "engine.sort_ms", "order-by": "engine.sort_ms", "distinct": "engine.sort_ms",
	"reverse": "engine.sort_ms",
}

const otherGroup = "core.other_ms"

// residualGroup is the execute span's self time, what is left of it after
// the plan operators: the plan lookup, setting the evaluator up, decoding
// the result relation into the forest the response serialises, and the
// analyzer's own bookkeeping (it reads the memory statistics at every
// operator boundary). It is a fixed 1-9 ms per query that grows with the
// document, not with the query. It is reported so that nothing is hidden in
// it: attach() fails the run if an operation's operators add up to more
// than its execute span, and checkAttribution() if the residual is more
// than maxResidualShare of plan.exec_ms.
const residualGroup = "plan.residual_ms"

// maxResidualShare is the share of plan.exec_ms the operators may leave
// unexplained at the committed scale (measured: 2 % on paths, 3 % on
// joins, 4 % on spill, 8 % on mixed-rw).
const maxResidualShare = 0.10

func operatorGroup(op string) string {
	if i := strings.Index(op, " ["); i >= 0 {
		op = op[:i]
	}
	if strings.HasPrefix(op, "aggregate-") || strings.HasPrefix(op, "arith(") {
		return "core.aggregate_ms"
	}
	if g, ok := operatorGroups[op]; ok {
		return g
	}
	return otherGroup
}

// layerOf is the package a group metric belongs to: its name up to the
// first dot.
func layerOf(metricName string) string {
	name, _, _ := strings.Cut(metricName, ".")
	return name
}

// scrape reads GET /metrics into name → value, summing a labelled
// family's children.
func (b *bench) scrape() (map[string]float64, error) {
	data, s := b.do("metrics", http.MethodGet, b.base+"/metrics", nil, time.Now())
	if !s.ok {
		return nil, fmt.Errorf("GET /metrics: %s", s.why)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name, rest, ok := strings.Cut(line, " ")
		if i := strings.IndexByte(line, '{'); i >= 0 {
			name = line[:i]
			_, rest, ok = strings.Cut(line[i:], "} ")
		}
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64); err == nil {
			out[name] += v
		}
	}
	return out, sc.Err()
}

// serverTraces reads every trace the server recorded since `since`, oldest
// first.
func (b *bench) serverTraces(since time.Time) ([]obs.Trace, error) {
	data, s := b.do("traces", http.MethodGet, b.base+"/debug/traces", nil, time.Now())
	if !s.ok {
		return nil, fmt.Errorf("GET /debug/traces: %s", s.why)
	}
	var resp server.TracesResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return nil, err
	}
	if len(resp.Traces) >= traceBuffer {
		return nil, fmt.Errorf("trace buffer of %d overflowed", traceBuffer)
	}
	var out []obs.Trace
	for i := len(resp.Traces) - 1; i >= 0; i-- {
		if tr := resp.Traces[i]; tr.StartUnixNS >= since.UnixNano() {
			out = append(out, tr)
		}
	}
	return out, nil
}

// layerSums accumulates what the server's own spans say, over a window.
type layerSums struct {
	// groupNS is exclusive operator time per group metric.
	groupNS map[string]int64
	execNS  int64
	rows    int64
	skipped int64
	trees   int64
}

// attach hangs the server's spans of each operation under its client span
// and sums them by layer. Reads and query traces, and writes and catalog
// traces, pair up in order: each client is a closed loop, so the server
// finishes them in the order the client sent them.
func (t *tracer) attach(win *window, traces []obs.Trace) (layerSums, error) {
	sums := layerSums{groupNS: map[string]int64{}}
	var queries, writes []obs.Trace
	for _, tr := range traces {
		if tr.Engine == "catalog" {
			writes = append(writes, tr)
		} else {
			queries = append(queries, tr)
		}
	}
	if len(queries) != len(win.reads) || len(writes) != len(win.writes) {
		return sums, fmt.Errorf("server traced %d queries and %d writes, the clients made %d and %d",
			len(queries), len(writes), len(win.reads), len(win.writes))
	}
	op := 0
	for i, s := range win.reads {
		op++
		tr := queries[i]
		client := t.add(0, op, "client:"+s.class, "client", int64(s.start), int64(s.end), map[string]int64{
			"response_bytes": int64(s.respBytes),
		})
		at := tr.StartUnixNS - win.t0.UnixNano()
		srv := t.add(client, op, "server:query", "server", at, at+tr.DurationNS, nil)
		sums.trees += int64(s.trees)
		for _, sp := range tr.Spans {
			layer := "server"
			switch sp.Name {
			case "parse-compile":
				layer = "core"
			case "execute":
				layer = "plan"
			}
			id := t.add(srv, op, sp.Name, layer, at, at+sp.DurationNS, nil)
			if sp.Name == "execute" {
				sums.execNS += sp.DurationNS
				residual := sp.DurationNS
				childAt := at
				for _, c := range sp.Children {
					g := operatorGroup(c.Name)
					t.add(id, op, c.Name, layerOf(g), childAt, childAt+c.DurationNS, counts(map[string]int64{
						"calls": int64(c.Calls), "rows": c.Rows, "batches": int64(c.Batches), "bytes": c.Bytes,
						"spilled": c.Spilled, "skipped": c.Skipped, "workers": int64(c.Workers),
					}))
					childAt += c.DurationNS
					sums.groupNS[g] += c.DurationNS
					residual -= c.DurationNS
					sums.rows += c.Rows
					sums.skipped += c.Skipped
				}
				if residual < 0 {
					return sums, fmt.Errorf("%s (operation %d): the operators' exclusive times exceed their execute span by %v",
						s.class, op, time.Duration(-residual))
				}
				sums.groupNS[residualGroup] += residual
			}
			at += sp.DurationNS
		}
	}
	for i, s := range win.writes {
		op++
		tr := writes[i]
		client := t.add(0, op, "client:"+s.class, "client", int64(s.start), int64(s.end), nil)
		at := tr.StartUnixNS - win.t0.UnixNano()
		for _, sp := range tr.Spans {
			t.add(client, op, "server:"+sp.Name, "server", at, at+sp.DurationNS, nil)
		}
	}
	return sums, nil
}

// probes are the timings of direct calls into the layers the server does
// not break down.
type probes struct {
	parse, encode, indexBuild, statsCollect time.Duration
	xmlBytes, storeBytes, heapBytes         int64
	// parseUS, compileUS and optimizeUS are per-query means of per-class
	// medians.
	parseUS, compileUS, optimizeUS float64
	decode, serialize              time.Duration
	update, reindex                []float64
	// demotions and loopsCosted are the optimizer's counters for one pass
	// over the classes.
	demotions, loopsCosted float64
}

// probeReps is how often the microsecond-scale front-end calls repeat per
// class; the class's figure is the median.
const probeReps = 31

// probeLayers calls each layer's public functions directly, on the same
// documents and queries the workload used.
func (t *tracer) probeLayers(b *bench) (probes, error) {
	var p probes
	before, err := b.scrape()
	if err != nil {
		return p, err
	}
	ixSet := &index.Set{Docs: map[string]*index.DocIndex{}, Epoch: 1}
	stSet := &stats.Set{Docs: map[string]*stats.DocStats{}, Epoch: 1}
	encoded := core.Catalog{}
	names := make([]string, 0, len(b.xml))
	for name := range b.xml {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		xml := b.xml[name]
		heapBefore := liveHeap()
		var (
			forest xmltree.Forest
			cat    core.Catalog
			err    error
		)
		p.parse += t.probe("xmltree.Parse", "xmltree", func() { forest, err = xmltree.Parse(xml) })
		if err != nil {
			return p, err
		}
		p.encode += t.probe("core.EncodeCatalog", "interval", func() {
			cat = core.EncodeCatalog(map[string]xmltree.Forest{name: forest})
		})
		rel := cat[name]
		encoded[name] = rel
		p.indexBuild += t.probe("index.Build", "index", func() { ixSet.Docs[name] = index.Build(rel) })
		p.statsCollect += t.probe("stats.Collect", "stats", func() { stSet.Docs[name] = stats.Collect(rel) })
		// What a loaded document keeps alive: its tree, its relation, its
		// index and its statistics.
		p.heapBytes += liveHeap() - heapBefore
		runtime.KeepAlive(forest)
		var buf bytes.Buffer
		t.probe("store.WriteFull", "store", func() { err = store.WriteFull(&buf, rel, ixSet.Docs[name], stSet.Docs[name]) })
		if err != nil {
			return p, err
		}
		p.storeBytes += int64(buf.Len())
		t.probe("store.ReadFull", "store", func() { _, _, _, err = store.ReadFull(bytes.NewReader(buf.Bytes())) })
		if err != nil {
			return p, err
		}
		p.xmlBytes += int64(len(xml))
	}

	live := b.srv.Catalog()
	for i := range b.classes {
		c := &b.classes[i]
		var parse, compile, optimize []float64
		for r := 0; r < probeReps; r++ {
			var (
				e    xq.Expr
				err  error
				root *plan.Node
			)
			parse = append(parse, float64(t.probe("xq.Parse", "xq", func() { e, err = xq.Parse(c.query) }).Nanoseconds())/1e3)
			if err != nil {
				return p, err
			}
			// The forced merge-join mode builds the tree the optimizer is
			// handed, without running it.
			compile = append(compile, float64(t.probe("core.Compile+Plan", "core", func() {
				root = core.Compile(e, core.Options{}).Plan(core.Options{ForceJoinMode: core.ModeMSJ, Indexes: ixSet})
			}).Nanoseconds())/1e3)
			optimize = append(optimize, float64(t.probe("opt.Optimize", "opt", func() { opt.Optimize(root, stSet) }).Nanoseconds())/1e3)
		}
		p.parseUS += median(parse) / float64(len(b.classes))
		p.compileUS += median(compile) / float64(len(b.classes))
		p.optimizeUS += median(optimize) / float64(len(b.classes))

		// The same plan the server runs, evaluated past it, so that the two
		// steps after the operators can be timed on their own.
		e, err := xq.Parse(c.query)
		if err != nil {
			return p, err
		}
		copts := core.Options{Indexes: ixSet, DocStats: stSet, MemBudget: b.w.cfg.MemBudget, SpillDir: b.spillDir}
		rel, err := core.Compile(e, copts).Eval(encoded, copts)
		if err != nil {
			return p, err
		}
		var forest xmltree.Forest
		p.decode += t.probe("interval.Decode", "interval", func() { forest, err = interval.Decode(rel) })
		if err != nil {
			return p, err
		}
		var xml string
		p.serialize += t.probe("Forest.String", "xmltree", func() { xml = forest.String() })
		if hashXML(xml) != b.ref[c.name].hash {
			return p, fmt.Errorf("probe of %s: answer differs from the verified one", c.name)
		}
	}

	frag, err := dixq.ParseDocument(b.fragment)
	if err != nil {
		return p, err
	}
	for r := 0; r < 3; r++ {
		steps := []struct {
			op   dixq.UpdateOp
			path []int
			frag *dixq.Document
		}{{dixq.OpAppendChild, []int{0}, frag}, {dixq.OpDelete, []int{0, rootChildren}, nil}}
		for _, st := range steps {
			p.update = append(p.update, ms(t.probe("Catalog.Update", "update", func() {
				_, err = live.Update(mainDoc, st.op, st.path, st.frag)
			})))
			if err != nil {
				return p, err
			}
			p.reindex = append(p.reindex, ms(t.probe("Catalog.Reindex", "catalog", func() { live.Reindex(mainDoc) })))
		}
	}
	after, err := b.scrape()
	if err != nil {
		return p, err
	}
	// The optimizer's counters over the probes, per pass over the classes.
	passes := (after["dixq_opt_plans_total"] - before["dixq_opt_plans_total"]) / float64(len(b.classes))
	p.demotions = ratio(after["dixq_opt_demotions_total"]-before["dixq_opt_demotions_total"], passes)
	p.loopsCosted = ratio(after["dixq_opt_loops_costed_total"]-before["dixq_opt_loops_costed_total"], passes)
	return p, nil
}

// runTraced is the traced run behind the per-layer metrics: a short
// untraced window first (the base of client.trace_overhead_ratio), then
// the same script against a server that traces every request, the layer
// probes, and the usual verification.
func runTraced(w workload, o options) (*report, error) {
	base, err := setup(w, o.seed, false)
	if err != nil {
		return nil, err
	}
	untraced := base.runWindow(o.seconds / 4)
	if err := base.close(); err != nil {
		return nil, err
	}

	b, err := setup(w, o.seed, true)
	if err != nil {
		return nil, err
	}
	d, t, err := b.traceWindow(o)
	verr := err
	if verr == nil {
		verr = d.discriminates(w)
	}
	if verr == nil {
		verr = b.verify()
	}
	if cerr := b.close(); verr == nil {
		verr = cerr
	}
	if err != nil {
		return nil, verr
	}

	all := [][]sample{d.win.reads, d.win.writes, untraced.reads, untraced.writes}
	rep := &report{}
	for _, set := range all {
		rep.attempted += len(set)
		rep.failed += len(set) - countOK(set)
	}
	if verr == nil {
		verr = rep.failures(all...)
	}
	rep.metrics = d.metrics()

	rounds := float64(d.win.rounds())
	traced, plain := latenciesByClass(d.win.reads, d.win.writes), latenciesByClass(untraced.reads, untraced.writes)
	spills := classSpills(d.win)
	for _, name := range allClassNames() {
		rep.metrics = append(rep.metrics,
			metric{"client." + name + ".p50_ms", "ms", median(traced[name])},
			metric{"client." + name + ".p90_ms", "ms", quantile(traced[name], 0.9)})
		if len(traced[name]) > 0 {
			rep.notes = append(rep.notes,
				metric{"client." + name + ".max_ms", "ms", quantile(traced[name], 1)},
				metric{"client." + name + ".n", "count", float64(len(traced[name]))},
				metric{"client." + name + ".untraced_p50_ms", "ms", median(plain[name])},
				metric{"client." + name + ".spilled_runs", "count", spills[name] / rounds})
		}
	}
	bounds := d.win.bounds
	rep.metrics = append(rep.metrics,
		metric{"client.segment_spread", "ratio", spread(d.win.endToEnd().queryP50)},
		metric{"client.gc_cycles", "count", float64(bounds[len(bounds)-1].gc-bounds[0].gc) / rounds},
		metric{"client.trace_overhead_ratio", "ratio", ratio(classP50(d.win.reads), classP50(untraced.reads))},
		metric{"process.peak_rss_mb", "MB", peakRSSMB()},
		metric{"process.gomaxprocs", "count", float64(runtime.GOMAXPROCS(0))},
	)
	rep.notes = append(rep.notes,
		metric{"rounds", "count", rounds},
		metric{"untraced_rounds", "count", float64(untraced.rounds())},
		metric{"spans", "count", float64(len(t.spans))})

	if werr := t.write(o.traceOut, w, o.seed, d.win.rounds(), rep.metrics); verr == nil {
		verr = werr
	}
	return rep, verr
}

// traced is what the traced window and the probes after it recorded.
type traced struct {
	win *window
	// before and after are the /metrics scrapes around the window.
	before, after map[string]float64
	sums          layerSums
	probes        probes
	workersHigh   int
	// pinnedBytes is the live heap settle() released: the superseded catalog
	// versions the plan cache kept reachable when the window ended (0 when
	// there were none and the cache only grew by settle's own plans).
	pinnedBytes int64
}

// traceWindow runs the traced window against b and gathers the four
// sources: client samples, server spans, /metrics deltas, layer probes.
func (b *bench) traceWindow(o options) (traced, *tracer, error) {
	var d traced
	var err error
	if d.before, err = b.scrape(); err != nil {
		return d, nil, err
	}
	exec.ResetHighWater()
	d.win = b.runWindow(o.seconds / 2)
	d.workersHigh = exec.HighWater()
	if d.after, err = b.scrape(); err != nil {
		return d, nil, err
	}
	traces, err := b.serverTraces(d.win.t0)
	if err != nil {
		return d, nil, err
	}
	t := &tracer{t0: d.win.t0}
	if d.sums, err = t.attach(d.win, traces); err != nil {
		return d, nil, err
	}
	pinned := liveHeap()
	if err := b.settle(); err != nil {
		return d, nil, err
	}
	d.pinnedBytes = max(0, pinned-liveHeap())
	d.probes, err = t.probeLayers(b)
	return d, t, err
}

// discriminates checks that the workload stressed what it exists to
// stress, on the counters that tell the workloads apart: runs spill under a
// memory budget and nowhere else, and reads miss the plan cache beside a
// writer and nowhere else.
func (d traced) discriminates(w workload) error {
	delta := func(name string) float64 { return d.after[name] - d.before[name] }
	if spilled := delta("dixq_spilled_runs_total"); (w.cfg.MemBudget > 0) != (spilled > 0) {
		return fmt.Errorf("%s spilled %g runs under a memory budget of %d bytes", w.name, spilled, w.cfg.MemBudget)
	}
	hits, misses := delta("dixq_plan_cache_hits_total"), delta("dixq_plan_cache_misses_total")
	switch hit := ratio(hits, hits+misses); {
	case w.writer && hit >= 0.1:
		return fmt.Errorf("%s: plan-cache hit ratio %.3f beside a writer, want < 0.1", w.name, hit)
	case !w.writer && hit <= 0.9:
		return fmt.Errorf("%s: plan-cache hit ratio %.3f on a read-only window, want > 0.9", w.name, hit)
	}
	return nil
}

// checkAttribution holds a traced run at the committed scale to ISSUE 14's
// acceptance check: the operator groups explain plan.exec_ms up to
// maxResidualShare. (The smoke test's documents are too small for it: the
// residual is a fixed cost per query.)
func checkAttribution(metrics []metric) error {
	var residual, exec float64
	for _, m := range metrics {
		switch m.name {
		case residualGroup:
			residual = m.value
		case "plan.exec_ms":
			exec = m.value
		}
	}
	if exec <= 0 || residual > maxResidualShare*exec {
		return fmt.Errorf("the operator groups leave %.3g of %.3g ms of plan.exec_ms unexplained, more than %.0f %%",
			residual, exec, 100*maxResidualShare)
	}
	return nil
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mb(bytes float64) float64 { return bytes / (1 << 20) }

// metrics assembles the per-layer metrics that do not depend on the class
// list. Times and counts are per round of the read script unless the unit
// says otherwise.
func (d traced) metrics() []metric {
	rounds := float64(d.win.rounds())
	p := d.probes
	delta := func(name string) float64 { return d.after[name] - d.before[name] }
	perRound := func(name string) float64 { return delta(name) / rounds }
	group := func(name string) metric {
		return metric{name, "ms", ms(time.Duration(d.sums.groupNS[name])) / rounds}
	}
	var overhead, respKB []float64
	var st server.StatsJSON
	for _, s := range d.win.reads {
		if !s.ok {
			continue
		}
		overhead = append(overhead, ms(s.latency())-s.serverMS)
		respKB = append(respKB, float64(s.respBytes)/1024)
		if s.stats != nil {
			st.PathsMS += s.stats.PathsMS
			st.JoinMS += s.stats.JoinMS
			st.ConstructionMS += s.stats.ConstructionMS
			st.EmbeddedTuples += s.stats.EmbeddedTuples
			st.MergeJoins += s.stats.MergeJoins
			st.NestedLoops += s.stats.NestedLoops
		}
	}
	hits, misses := delta("dixq_plan_cache_hits_total"), delta("dixq_plan_cache_misses_total")
	return []metric{
		{"server.overhead_ms", "ms", median(overhead)},
		{"server.response_kb", "KB", mean(respKB)},
		{"server.rejected_ops", "count", delta("dixq_admission_rejections_total")},
		{"server.plan_cache_hit_ratio", "ratio", ratio(hits, hits+misses)},
		{"server.plan_cache_pinned_mb", "MB", mb(float64(d.pinnedBytes))},
		{"xq.parse_us", "us", p.parseUS},
		{"core.compile_us", "us", p.compileUS},
		{"opt.optimize_us", "us", p.optimizeUS},
		{"opt.merge_joins", "count", float64(st.MergeJoins) / rounds},
		{"opt.nested_loops", "count", float64(st.NestedLoops) / rounds},
		{"opt.demotions", "count", p.demotions},
		{"opt.loops_costed", "count", p.loopsCosted},
		{"core.paths_ms", "ms", st.PathsMS / rounds},
		{"core.join_ms", "ms", st.JoinMS / rounds},
		{"core.construction_ms", "ms", st.ConstructionMS / rounds},
		{"core.embedded_tuples", "count", float64(st.EmbeddedTuples) / rounds},
		{"plan.exec_ms", "ms", ms(time.Duration(d.sums.execNS)) / rounds},
		{"plan.rows_per_result", "ratio", ratio(float64(d.sums.rows), float64(d.sums.trees))},
		group(residualGroup),
		group("pipeline.path_ms"),
		{"pipeline.batches", "count", perRound("dixq_batches_processed_total")},
		{"pipeline.batch_mb", "MB", mb(perRound("dixq_batch_bytes_total"))},
		group("index.seek_ms"),
		{"index.seeks", "count", perRound("dixq_index_seeks_total")},
		{"index.scan_fallbacks", "count", perRound("dixq_index_scan_fallbacks_total")},
		{"index.pruned_paths", "count", perRound("dixq_index_pruned_paths_total")},
		{"index.rows_skipped", "count", float64(d.sums.skipped) / rounds},
		group("core.msj_ms"),
		group("core.nlj_ms"),
		{"core.probe_pairs", "count", perRound("dixq_probe_pairs_total")},
		group("core.aggregate_ms"),
		group("core.construct_ms"),
		group(otherGroup),
		group("engine.sort_ms"),
		{"engine.sort_mb", "MB", mb(perRound("dixq_sort_bytes_total"))},
		{"extsort.spilled_runs", "count", perRound("dixq_spilled_runs_total")},
		{"extsort.spilled_mb", "MB", mb(perRound("dixq_spilled_bytes_total"))},
		{"store.run_mb_written", "MB", mb(perRound("dixq_spill_run_bytes_written_total"))},
		{"store.run_mb_read", "MB", mb(perRound("dixq_spill_run_bytes_read_total"))},
		{"exec.workers_high_water", "count", float64(d.workersHigh)},
		{"exec.parallel_tasks", "count", perRound("dixq_parallel_tasks_total")},
		{"exec.parallel_chains", "count", perRound("dixq_parallel_chains_total")},
		{"exec.exchange_partitions", "count", perRound("dixq_exchange_partitions_total")},
		{"xmltree.parse_ms", "ms", ms(p.parse)},
		{"xmltree.parse_mb_per_s", "MB/s", ratio(mb(float64(p.xmlBytes)), p.parse.Seconds())},
		{"interval.encode_ms", "ms", ms(p.encode)},
		{"index.build_ms", "ms", ms(p.indexBuild)},
		{"stats.collect_ms", "ms", ms(p.statsCollect)},
		{"interval.decode_ms", "ms", ms(p.decode)},
		{"xmltree.serialize_ms", "ms", ms(p.serialize)},
		{"update.apply_ms", "ms", median(p.update)},
		{"catalog.reindex_ms", "ms", median(p.reindex)},
		{"catalog.versions_published", "count", delta("dixq_catalog_version")},
		{"store.bytes_per_xml_byte", "ratio", ratio(float64(p.storeBytes), float64(p.xmlBytes))},
		{"catalog.heap_bytes_per_xml_byte", "ratio", ratio(float64(p.heapBytes), float64(p.xmlBytes))},
	}
}

// classSpills is the number of external-sort runs each read class
// reported spilling over a window (classes that spilled none are absent).
func classSpills(win *window) map[string]float64 {
	by := map[string]float64{}
	for _, s := range win.reads {
		if s.stats != nil && s.stats.SpilledRuns > 0 {
			by[s.class] += float64(s.stats.SpilledRuns)
		}
	}
	return by
}

// write dumps the spans and the per-layer summary as JSON.
func (t *tracer) write(path string, w workload, seed int64, rounds int, metrics []metric) error {
	summary := map[string]float64{}
	for _, m := range metrics {
		summary[m.name] = m.value
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = json.NewEncoder(bw).Encode(struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		Rounds   int                `json:"rounds"`
		Summary  map[string]float64 `json:"summary"`
		Spans    []span             `json:"spans"`
	}{w.name, seed, rounds, summary, t.spans})
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dixq"
	"dixq/internal/exec"
	"dixq/internal/obs"
)

func testServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	doc, err := dixq.ParseDocument(dixq.XMarkFigure1)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(map[string]*dixq.Document{"auction.xml": doc}, cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)
	return ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestHealthAndDocs(t *testing.T) {
	ts := testServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/docs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out DocsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Docs) != 1 || out.Docs[0].Name != "auction.xml" || out.Docs[0].Nodes != 43 {
		t.Fatalf("docs = %+v", out)
	}
	if out.Version == 0 {
		t.Fatalf("catalog version = 0 after loading a document")
	}
}

func TestQueryAllEngines(t *testing.T) {
	ts := testServer(t, Config{})
	for _, engine := range []string{"", "di-msj", "di-nlj", "interp", "generic-sql"} {
		resp, body := postJSON(t, ts.URL+"/query", QueryRequest{Query: dixq.XMarkQ8, Engine: engine})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("engine %q: status %d: %s", engine, resp.StatusCode, body)
		}
		var out QueryResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if out.XML != `<item person="Cong Rosca">1</item>` || out.Trees != 1 {
			t.Fatalf("engine %q: %+v", engine, out)
		}
		if (engine == "" || strings.HasPrefix(engine, "di-")) && out.Stats == nil {
			t.Fatalf("engine %q: missing stats", engine)
		}
	}
}

func TestQueryIndent(t *testing.T) {
	ts := testServer(t, Config{})
	_, body := postJSON(t, ts.URL+"/query", QueryRequest{
		Query:  `for $p in document("auction.xml")/site/people/person return <n>{$p/name/text()}</n>`,
		Indent: true,
	})
	var out QueryResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.XML, "\n") || out.Trees != 2 {
		t.Fatalf("indent = %+v", out)
	}
}

func TestQueryErrors(t *testing.T) {
	ts := testServer(t, Config{})
	cases := []struct {
		body   any
		status int
	}{
		{QueryRequest{Query: `$$$`}, http.StatusBadRequest},
		{QueryRequest{}, http.StatusBadRequest},
		{QueryRequest{Query: `$x`, Engine: "bogus"}, http.StatusBadRequest},
		{QueryRequest{Query: `document("missing")`}, http.StatusUnprocessableEntity},
		{"not json at all", http.StatusBadRequest},
	}
	for _, tt := range cases {
		resp, body := postJSON(t, ts.URL+"/query", tt.body)
		if resp.StatusCode != tt.status {
			t.Errorf("%+v: status %d (%s), want %d", tt.body, resp.StatusCode, body, tt.status)
		}
	}
	// Wrong method.
	resp, err := http.Get(ts.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /query status = %d", resp.StatusCode)
	}
}

func TestQueryBudget(t *testing.T) {
	doc := dixq.GenerateXMark(0.01, 1)
	srv := New(map[string]*dixq.Document{"auction.xml": doc}, Config{MaxTuples: 10_000, Timeout: time.Minute})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, _ := postJSON(t, ts.URL+"/query", QueryRequest{Query: dixq.XMarkQ8, Engine: "di-nlj"})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("budget status = %d", resp.StatusCode)
	}
	// MSJ fits the same budget.
	resp, _ = postJSON(t, ts.URL+"/query", QueryRequest{Query: dixq.XMarkQ8, Engine: "di-msj"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("msj status = %d", resp.StatusCode)
	}
}

// TestQueryTimeoutEveryEngine checks that Config.Timeout bounds every
// engine, the oracle legs included: each run past it is a 504, counted
// once in dixq_budget_rejections_total, and releases its snapshot.
func TestQueryTimeoutEveryEngine(t *testing.T) {
	ts := testServer(t, Config{Timeout: time.Nanosecond})
	for _, engine := range []string{"interp", "generic-sql", "di-opt", "di-msj", "di-nlj"} {
		before, pinned := obs.BudgetRejections.Value(), obs.SnapshotsPinned.Value()
		resp, body := postJSON(t, ts.URL+"/query", QueryRequest{Query: dixq.XMarkQ8, Engine: engine})
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Errorf("%s: status = %d (%s), want 504", engine, resp.StatusCode, body)
		}
		if n := obs.BudgetRejections.Value() - before; n != 1 {
			t.Errorf("%s: %d budget rejections counted, want 1", engine, n)
		}
		if p := obs.SnapshotsPinned.Value(); p != pinned {
			t.Errorf("%s: %d snapshots pinned after the abort, %d before", engine, p, pinned)
		}
	}
}

func TestExplainAndSQL(t *testing.T) {
	ts := testServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/explain", QueryRequest{Query: dixq.XMarkQ8})
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "merge-join") {
		t.Fatalf("explain: %d %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts.URL+"/sql", QueryRequest{Query: dixq.XMarkQ8})
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "WITH") {
		t.Fatalf("sql: %d %s", resp.StatusCode, body)
	}
	resp, _ = postJSON(t, ts.URL+"/sql", QueryRequest{Query: `sort(document("auction.xml"))`})
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("unsupported sql status = %d", resp.StatusCode)
	}
}

func TestConcurrentQueries(t *testing.T) {
	ts := testServer(t, Config{})
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			resp, _ := postJSON(t, ts.URL+"/query", QueryRequest{Query: dixq.XMarkQ8})
			if resp.StatusCode != http.StatusOK {
				done <- &json.UnsupportedValueError{}
				return
			}
			done <- nil
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal("concurrent query failed")
		}
	}
}

// TestSharedWorkerBudget locks the process-wide parallelism contract:
// however many queries run concurrently and whatever Parallelism each
// requests, the extra workers drawn at any instant never exceed the one
// process budget — concurrent requests degrade toward serial instead of
// multiplying goroutines. It also checks the worker gauge drains to zero
// and every parallel result matches the serial one digit for digit.
func TestSharedWorkerBudget(t *testing.T) {
	const budget = 3
	prev := exec.SetLimit(budget)
	defer exec.SetLimit(prev)
	exec.ResetHighWater()

	ts := testServer(t, Config{})
	serialResp, serialBody := postJSON(t, ts.URL+"/query", QueryRequest{Query: dixq.XMarkQ8, Parallelism: 1})
	if serialResp.StatusCode != http.StatusOK {
		t.Fatalf("serial query failed: %s", serialBody)
	}
	var serial QueryResponse
	if err := json.Unmarshal(serialBody, &serial); err != nil {
		t.Fatal(err)
	}

	const n = 8
	type outcome struct {
		xml string
		err error
	}
	results := make(chan outcome, n)
	for i := 0; i < n; i++ {
		go func() {
			resp, body := postJSON(t, ts.URL+"/query", QueryRequest{Query: dixq.XMarkQ8, Parallelism: 4})
			if resp.StatusCode != http.StatusOK {
				results <- outcome{err: fmt.Errorf("status %d: %s", resp.StatusCode, body)}
				return
			}
			var out QueryResponse
			if err := json.Unmarshal(body, &out); err != nil {
				results <- outcome{err: err}
				return
			}
			results <- outcome{xml: out.XML}
		}()
	}
	for i := 0; i < n; i++ {
		got := <-results
		if got.err != nil {
			t.Fatal(got.err)
		}
		if got.xml != serial.XML {
			t.Fatal("parallel result diverged from the serial result")
		}
	}
	if hw := exec.HighWater(); hw > budget {
		t.Errorf("extra workers peaked at %d, over the process budget %d", hw, budget)
	}
	if in := exec.InFlight(); in != 0 {
		t.Errorf("%d worker slots still held after all queries finished", in)
	}
	if g := obs.ParallelWorkersActive.Value(); g != 0 {
		t.Errorf("dixq_parallel_workers_active = %d after all queries finished, want 0", g)
	}
}

func TestPlanCache(t *testing.T) {
	ts := testServer(t, Config{})
	query := `for $x in document("auction.xml")/site/regions return count($x/*)`
	var last StatsJSON
	for i := 0; i < 3; i++ {
		resp, body := postJSON(t, ts.URL+"/query", QueryRequest{Query: query})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var out QueryResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if out.Stats == nil {
			t.Fatal("missing stats")
		}
		last = *out.Stats
	}
	if last.PlanCacheMiss != 1 || last.PlanCacheHits != 2 {
		t.Fatalf("want 1 miss / 2 hits, got %d / %d", last.PlanCacheMiss, last.PlanCacheHits)
	}
	// A different engine is a different cache key.
	resp, body := postJSON(t, ts.URL+"/query", QueryRequest{Query: query, Engine: "di-nlj"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out QueryResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Stats.PlanCacheMiss != 2 {
		t.Fatalf("want 2 misses after engine change, got %d", out.Stats.PlanCacheMiss)
	}
}

// TestPlanCacheKeyIncludesOptions is the regression test for the cache
// key: requests that differ in any plan-affecting option must occupy
// distinct cache slots, while requests that differ only in a
// non-canonical spelling of the same option (parallelism 0 and -1 both
// resolve to the machine default) must share one. The explicit
// parallelism values are derived from the resolved default so the test
// holds at any GOMAXPROCS (the CI matrix runs -cpu=1,4).
func TestPlanCacheKeyIncludesOptions(t *testing.T) {
	planKey := func(req *QueryRequest, cfg Config, version uint64) string {
		t.Helper()
		engine, err := dixq.ParseEngine(req.Engine)
		if err != nil {
			t.Fatal(err)
		}
		return planKey(req, engine, cfg, version)
	}
	def := exec.Resolve(0)
	base := QueryRequest{Query: "q", Engine: "di-msj"}
	distinct := []QueryRequest{
		base,
		{Query: "q", Engine: "di-nlj"},
		{Query: "q", Engine: "di-msj", Parallelism: def + 1},
		{Query: "q", Engine: "di-msj", Parallelism: def + 2},
	}
	seen := map[string]int{}
	for i, req := range distinct {
		key := planKey(&req, Config{}, 0)
		if j, dup := seen[key]; dup {
			t.Errorf("requests %d and %d share cache key %q", j, i, key)
		}
		seen[key] = i
	}
	// Non-canonical spellings of the machine default collapse onto it.
	for _, par := range []int{-1, 0, def} {
		req := base
		req.Parallelism = par
		if got, want := planKey(&req, Config{}, 0), planKey(&base, Config{}, 0); got != want {
			t.Errorf("parallelism %d key = %q, want the default key %q", par, got, want)
		}
	}
	// The server default fills an unset request value: an unset request
	// under Config{Parallelism: n} shares the slot of an explicit n.
	explicit := base
	explicit.Parallelism = def + 1
	if got, want := planKey(&base, Config{Parallelism: def + 1}, 0), planKey(&explicit, Config{}, 0); got != want {
		t.Errorf("config-default key = %q, want the explicit key %q", got, want)
	}
	// ... and an explicit request value overrides the server default.
	if got, want := planKey(&explicit, Config{Parallelism: def + 2}, 0), planKey(&explicit, Config{}, 0); got != want {
		t.Errorf("request override key = %q, want %q", got, want)
	}
	// The per-tenant worker cap clamps the resolved parallelism, so a
	// capped configuration keys differently from an uncapped one.
	if got, want := planKey(&explicit, Config{TenantWorkers: 1}, 0), planKey(&explicit, Config{}, 0); got == want {
		t.Errorf("tenant worker cap kept cache key %q", got)
	}
	// The engine component is canonical: the empty name is the default
	// engine's slot.
	if got, want := planKey(&QueryRequest{Query: "q"}, Config{}, 0), planKey(&QueryRequest{Query: "q", Engine: "di-opt"}, Config{}, 0); got != want {
		t.Errorf("empty engine key = %q, want the di-opt key %q", got, want)
	}
	// A new catalog version — any document load, update, drop, reindex or
	// stats refresh — must not reuse plans compiled against the old
	// snapshot.
	if got, want := planKey(&base, Config{}, 1), planKey(&base, Config{}, 0); got == want {
		t.Errorf("catalog version change kept cache key %q", got)
	}
	// Analyze and Indent shape the response, not the plan.
	for _, req := range []QueryRequest{
		{Query: "q", Engine: "di-msj", Analyze: true},
		{Query: "q", Engine: "di-msj", Indent: true},
	} {
		if got, want := planKey(&req, Config{}, 0), planKey(&base, Config{}, 0); got != want {
			t.Errorf("response-only option changed the key: %q vs %q", got, want)
		}
	}
}

// TestPlanCacheOptionsEndToEnd drives the regression through the HTTP
// layer: the same query under a different engine or worker bound must miss
// the cache, while a body still carrying the removed "legacy_keys" /
// "no_pipeline" fields is accepted, answers identically and lands in the
// slot of the body without them; the default engine's two spellings share
// one slot, and an unknown engine is rejected before any cache traffic.
func TestPlanCacheOptionsEndToEnd(t *testing.T) {
	ts, srv := lifecycleServer(t, Config{}, map[string]string{"auction.xml": dixq.XMarkFigure1})
	query := `for $x in document("auction.xml")/site/regions return count($x/*)`
	run := func(req any) QueryResponse {
		t.Helper()
		resp, body := postJSON(t, ts.URL+"/query", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var out QueryResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if out.Stats == nil {
			t.Fatal("missing stats")
		}
		return out
	}
	first := run(QueryRequest{Query: query})
	if out := run(QueryRequest{Query: query, Engine: "di-nlj"}); out.Stats.PlanCacheMiss != 2 {
		t.Fatalf("engine change should miss: %d misses", out.Stats.PlanCacheMiss)
	}
	if out := run(QueryRequest{Query: query, Parallelism: exec.Resolve(0) + 1}); out.Stats.PlanCacheMiss != 3 {
		t.Fatalf("parallelism change should miss: %d misses", out.Stats.PlanCacheMiss)
	}
	old := run(map[string]any{"query": query, "legacy_keys": true, "no_pipeline": true})
	if old.Stats.PlanCacheHits != 1 || old.Stats.PlanCacheMiss != 3 {
		t.Fatalf("body with removed fields should hit the first request's slot: %d hits, %d misses",
			old.Stats.PlanCacheHits, old.Stats.PlanCacheMiss)
	}
	if old.XML != first.XML || old.Trees != first.Trees {
		t.Fatalf("removed fields changed the answer:\n%s\nwant\n%s", old.XML, first.XML)
	}
	for _, tc := range []struct {
		engine             string
		status             int
		hits, misses, size uint64
	}{
		{"di-opt", http.StatusOK, 2, 3, 3},         // the slot of the first request's ""
		{"", http.StatusOK, 3, 3, 3},               // ... and back
		{"nope", http.StatusBadRequest, 3, 3, 3},   // rejected: no lookup, no insert
		{"di-msj", http.StatusOK, 3, 4, 4},         // a real engine change still misses
		{"DI-MSJ", http.StatusBadRequest, 3, 4, 4}, // display names are not wire names
	} {
		resp, body := postJSON(t, ts.URL+"/query", QueryRequest{Query: query, Engine: tc.engine})
		if resp.StatusCode != tc.status {
			t.Fatalf("engine %q: status %d: %s", tc.engine, resp.StatusCode, body)
		}
		hits, misses := srv.plans.counts()
		if hits != tc.hits || misses != tc.misses || uint64(srv.plans.len()) != tc.size {
			t.Errorf("engine %q: %d hits, %d misses, %d cached; want %d, %d, %d",
				tc.engine, hits, misses, srv.plans.len(), tc.hits, tc.misses, tc.size)
		}
	}
}

// TestExplainAnalyze exercises the analyze form of POST /explain: the
// response must carry per-operator actuals whose times sum to the
// reported total (the operator times are exclusive by construction).
func TestExplainAnalyze(t *testing.T) {
	ts := testServer(t, Config{})
	for _, engine := range []string{"", "di-nlj"} {
		resp, body := postJSON(t, ts.URL+"/explain", QueryRequest{
			Query: dixq.XMarkQ8, Engine: engine, Analyze: true,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("engine %q: status %d: %s", engine, resp.StatusCode, body)
		}
		var out ExplainResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if out.AnalyzedPlan == "" || !strings.Contains(out.AnalyzedPlan, "rows=") {
			t.Fatalf("engine %q: analyzed plan missing actuals: %q", engine, out.AnalyzedPlan)
		}
		if len(out.Operators) == 0 {
			t.Fatalf("engine %q: no operators", engine)
		}
		var sum float64
		executed := 0
		for _, op := range out.Operators {
			sum += op.TimeMS
			if op.Calls > 0 {
				executed++
			}
		}
		if sum != out.TotalMS {
			t.Errorf("engine %q: operator times sum to %v, total_ms = %v", engine, sum, out.TotalMS)
		}
		if executed == 0 {
			t.Errorf("engine %q: no operator recorded a call", engine)
		}
	}
	// Analyze is a DI-engine feature.
	resp, _ := postJSON(t, ts.URL+"/explain", QueryRequest{
		Query: dixq.XMarkQ8, Engine: "interp", Analyze: true,
	})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("interp analyze status = %d", resp.StatusCode)
	}
}

func TestPlanCacheEviction(t *testing.T) {
	c := newPlanCache(2)
	q := &dixq.Query{}
	c.put("a", q)
	c.put("b", q)
	if _, ok := c.get("a"); !ok {
		t.Fatal("a evicted early")
	}
	c.put("c", q) // evicts b (least recently used after a's promotion)
	if _, ok := c.get("b"); ok {
		t.Fatal("b survived past capacity")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("a lost")
	}
	if _, ok := c.get("c"); !ok {
		t.Fatal("c lost")
	}
	if c.len() != 2 {
		t.Fatalf("len = %d", c.len())
	}
	hits, misses := c.counts()
	if hits != 3 || misses != 1 {
		t.Fatalf("counts = %d/%d", hits, misses)
	}
	// Disabled cache: all operations are no-ops.
	var off *planCache
	off.put("x", q)
	if _, ok := off.get("x"); ok {
		t.Fatal("disabled cache returned a plan")
	}
}

// TestStatsEpochEvictsPlans is the regression test for statistics-driven
// plan-cache invalidation: recollecting the catalog's statistics bumps
// the stats epoch — with the index epoch untouched — and cached plans
// stop being served, because a plan the cost-based optimizer shaped
// around the old statistics may no longer be the one it would build.
// Reloading a document must bump the stats epoch too (alongside the
// index epoch), so reloads invalidate on both axes.
func TestStatsEpochEvictsPlans(t *testing.T) {
	doc, err := dixq.ParseDocument(dixq.XMarkFigure1)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(map[string]*dixq.Document{"auction.xml": doc}, Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	req := QueryRequest{
		Query: `for $p in document("auction.xml")/site/people/person
		        return for $q in document("auction.xml")/site/people/person
		        where $p = $q return $q/name/text()`,
		Engine: "di-opt",
	}
	run := func() {
		t.Helper()
		resp, body := postJSON(t, ts.URL+"/query", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
	}
	run() // compile + cache
	run() // served from cache
	hits, misses := srv.plans.counts()
	if hits != 1 || misses != 1 {
		t.Fatalf("warmup hits/misses = %d/%d, want 1/1", hits, misses)
	}

	idxBefore, statsBefore := srv.cat.IndexEpoch(), srv.cat.StatsEpoch()
	srv.cat.RefreshStats()
	if got := srv.cat.IndexEpoch(); got != idxBefore {
		t.Fatalf("RefreshStats moved the index epoch %d -> %d", idxBefore, got)
	}
	if got := srv.cat.StatsEpoch(); got == statsBefore {
		t.Fatalf("RefreshStats kept stats epoch %d", got)
	}
	run() // must recompile: the cached plan is keyed to the old stats epoch
	if _, misses = srv.plans.counts(); misses != 2 {
		t.Fatalf("misses after RefreshStats = %d, want 2 (stale plan served?)", misses)
	}

	statsBefore = srv.cat.StatsEpoch()
	srv.cat.Add("auction.xml", doc)
	if got := srv.cat.StatsEpoch(); got == statsBefore {
		t.Fatalf("document reload kept stats epoch %d", got)
	}
	run()
	if _, misses = srv.plans.counts(); misses != 3 {
		t.Fatalf("misses after reload = %d, want 3", misses)
	}
}

package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dixq"
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
	for _, engine := range []string{"interp", "generic-sql", "di-msj", "di-nlj"} {
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
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "index-seek") {
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
// key: requests that differ in an option that changes the plan — the
// engine, the catalog version — must occupy distinct cache slots, while
// requests that differ only in a spelling of the same engine or in an
// option that shapes the response but not the plan (analyze, indent)
// must share one.
func TestPlanCacheKeyIncludesOptions(t *testing.T) {
	planKey := func(req *QueryRequest, version uint64) string {
		t.Helper()
		engine, err := dixq.ParseEngine(req.Engine)
		if err != nil {
			t.Fatal(err)
		}
		return planKey(req, engine, version)
	}
	base := QueryRequest{Query: "q", Engine: "di-msj"}
	if got, want := planKey(&QueryRequest{Query: "q", Engine: "di-nlj"}, 0), planKey(&base, 0); got == want {
		t.Errorf("engine change kept cache key %q", got)
	}
	// The engine component is canonical: the empty name is the default
	// engine's slot.
	if got, want := planKey(&QueryRequest{Query: "q"}, 0), planKey(&base, 0); got != want {
		t.Errorf("empty engine key = %q, want the di-msj key %q", got, want)
	}
	// A new catalog version — any document load, update, drop or reindex
	// — must not reuse plans compiled against the old snapshot.
	if got, want := planKey(&base, 1), planKey(&base, 0); got == want {
		t.Errorf("catalog version change kept cache key %q", got)
	}
	// Analyze and Indent shape the response, not the plan.
	for _, req := range []QueryRequest{
		{Query: "q", Engine: "di-msj", Analyze: true},
		{Query: "q", Engine: "di-msj", Indent: true},
	} {
		if got, want := planKey(&req, 0), planKey(&base, 0); got != want {
			t.Errorf("plan-neutral option changed the key: %q vs %q", got, want)
		}
	}
}

// TestPlanCacheOptionsEndToEnd drives the regression through the HTTP
// layer: the same query under a different engine must miss the cache,
// and a body still carrying the removed "legacy_keys", "no_pipeline" and
// "parallelism" fields is accepted, answers identically and lands in the
// slot of the body without them; the default engine's two spellings share one slot,
// and an unknown engine is rejected before any cache traffic.
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
	old := run(map[string]any{"query": query, "legacy_keys": true, "no_pipeline": true, "parallelism": 4})
	if old.Stats.PlanCacheHits != 1 || old.Stats.PlanCacheMiss != 2 {
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
		{"di-msj", http.StatusOK, 2, 2, 2},         // the slot of the first request's ""
		{"", http.StatusOK, 3, 2, 2},               // ... and back
		{"nope", http.StatusBadRequest, 3, 2, 2},   // rejected: no lookup, no insert
		{"di-opt", http.StatusBadRequest, 3, 2, 2}, // unknown, like any other name
		{"DI-MSJ", http.StatusBadRequest, 3, 2, 2}, // display names are not wire names
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
		if out.AnalyzedPlan == "" || !strings.Contains(out.AnalyzedPlan, "act=") {
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

// TestExplainShowsExecutedPlan: the plan /explain returns is the tree the
// requested DI engine runs on the pinned snapshot — for Q8 under di-msj
// over an indexed document with statistics, one with index seeks — with a
// row estimate on every line, and the response carries no optimizer
// report. Plan lines are in preorder, so line i is node i; the analyzed
// plan annotates the very same lines.
func TestExplainShowsExecutedPlan(t *testing.T) {
	srv := New(map[string]*dixq.Document{"auction.xml": dixq.GenerateXMark(0.003, 5)}, Config{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)
	resp, body := postJSON(t, ts.URL+"/explain", QueryRequest{Query: dixq.XMarkQ8, Engine: "di-msj", Analyze: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out ExplainResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.Plan, "index-seek") {
		t.Fatalf("plan has no index seek:\n%s", out.Plan)
	}
	lines := strings.Split(strings.TrimRight(out.Plan, "\n"), "\n")
	for i, l := range lines {
		if !strings.Contains(l, "est: ") {
			t.Errorf("line %d carries no estimate: %q", i, l)
		}
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["optimizer"]; ok {
		t.Errorf("explain response still carries an optimizer key: %s", raw["optimizer"])
	}
	analyzed := strings.Split(strings.TrimRight(out.AnalyzedPlan, "\n"), "\n")
	if len(analyzed) != len(lines) {
		t.Fatalf("analyzed plan has %d lines, plan %d", len(analyzed), len(lines))
	}
	for i, l := range lines {
		if !strings.HasPrefix(analyzed[i], l+" (act=") {
			t.Errorf("line %d: analyzed %q does not annotate %q", i, analyzed[i], l)
		}
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
// plan-cache invalidation: an update changes the document's statistics
// and publishes them under a new catalog version, so the cached plan,
// estimated from the old statistics, stops being served; reloading the
// document does the same.
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
		Engine: "di-msj",
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

	frag, err := dixq.ParseDocument(`<person id="p9"><name>Z</name></person>`)
	if err != nil {
		t.Fatal(err)
	}
	version := srv.cat.Version()
	if _, err := srv.cat.Update("auction.xml", dixq.OpAppendChild, []int{0}, frag); err != nil {
		t.Fatal(err)
	}
	if srv.cat.Version() == version {
		t.Fatal("the update published no new version")
	}
	run() // must recompile: the cached plan is keyed to the old version
	if _, misses = srv.plans.counts(); misses != 2 {
		t.Fatalf("misses after the update = %d, want 2 (stale plan served?)", misses)
	}

	srv.cat.Add("auction.xml", doc)
	run()
	if _, misses = srv.plans.counts(); misses != 3 {
		t.Fatalf("misses after reload = %d, want 3", misses)
	}
}

package server

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"dixq"
	"dixq/internal/obs"
)

// TestRouteMethodsAndContentTypes drives every registered route with its
// supported method, an unsupported one, and checks an unknown path — the
// contract being that every error body is JSON, wrong methods get 405
// with an Allow header, and success responses carry the right
// Content-Type.
func TestRouteMethodsAndContentTypes(t *testing.T) {
	ts := testServer(t, Config{})
	cases := []struct {
		name        string
		method      string
		path        string
		body        string
		status      int
		contentType string
		allow       string
	}{
		{"healthz ok", "GET", "/healthz", "", http.StatusOK, "text/plain; charset=utf-8", ""},
		{"healthz wrong method", "POST", "/healthz", "", http.StatusMethodNotAllowed, "application/json", "GET"},
		{"docs ok", "GET", "/docs", "", http.StatusOK, "application/json", ""},
		{"docs wrong method", "DELETE", "/docs", "", http.StatusMethodNotAllowed, "application/json", "GET"},
		{"doc get ok", "GET", "/docs/auction.xml", "", http.StatusOK, "application/json", ""},
		{"doc get missing", "GET", "/docs/ghost.xml", "", http.StatusNotFound, "application/json", ""},
		{"doc put ok", "PUT", "/docs/new.xml", `<r/>`, http.StatusCreated, "application/json", ""},
		{"doc update ok", "POST", "/docs/new.xml", `{"op":"append-child","path":[0],"xml":"<c/>"}`, http.StatusOK, "application/json", ""},
		{"doc delete ok", "DELETE", "/docs/new.xml", "", http.StatusOK, "application/json", ""},
		{"doc wrong method", "PATCH", "/docs/auction.xml", "", http.StatusMethodNotAllowed, "application/json", "GET, PUT, POST, DELETE"},
		{"metrics ok", "GET", "/metrics", "", http.StatusOK, "text/plain; version=0.0.4; charset=utf-8", ""},
		{"metrics wrong method", "POST", "/metrics", "", http.StatusMethodNotAllowed, "application/json", "GET"},
		{"traces ok", "GET", "/debug/traces", "", http.StatusOK, "application/json", ""},
		{"traces wrong method", "PUT", "/debug/traces", "", http.StatusMethodNotAllowed, "application/json", "GET"},
		{"query ok", "POST", "/query", `{"query":"1"}`, http.StatusOK, "application/json", ""},
		{"query wrong method", "GET", "/query", "", http.StatusMethodNotAllowed, "application/json", "POST"},
		{"explain ok", "POST", "/explain", `{"query":"1"}`, http.StatusOK, "application/json", ""},
		{"explain wrong method", "GET", "/explain", "", http.StatusMethodNotAllowed, "application/json", "POST"},
		{"sql ok", "POST", "/sql", `{"query":"1"}`, http.StatusOK, "application/json", ""},
		{"sql wrong method", "HEAD", "/sql", "", http.StatusMethodNotAllowed, "application/json", "POST"},
		{"unknown path", "GET", "/nope", "", http.StatusNotFound, "application/json", ""},
		{"unknown nested path", "POST", "/query/extra", "", http.StatusNotFound, "application/json", ""},
		{"bad request stays json", "POST", "/query", `{`, http.StatusBadRequest, "application/json", ""},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			var body io.Reader
			if tt.body != "" {
				body = strings.NewReader(tt.body)
			}
			req, err := http.NewRequest(tt.method, ts.URL+tt.path, body)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tt.status {
				t.Fatalf("status = %d, want %d (%s)", resp.StatusCode, tt.status, data)
			}
			if ct := resp.Header.Get("Content-Type"); ct != tt.contentType {
				t.Errorf("content-type = %q, want %q", ct, tt.contentType)
			}
			if tt.allow != "" {
				if got := resp.Header.Get("Allow"); got != tt.allow {
					t.Errorf("allow = %q, want %q", got, tt.allow)
				}
			}
			// Every error body must decode as {"error": ...}. HEAD has no
			// body by protocol.
			if tt.status >= 400 && tt.method != "HEAD" {
				var e errorResponse
				if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
					t.Errorf("error body not JSON: %q (%v)", data, err)
				}
			}
		})
	}
}

// TestMetricsEndpoint checks that running a query and a document write
// is visible in the Prometheus exposition afterwards.
func TestMetricsEndpoint(t *testing.T) {
	ts := testServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/query", QueryRequest{Query: dixq.XMarkQ8})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d: %s", resp.StatusCode, body)
	}
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/docs/m.xml", strings.NewReader(`<r/>`))
	if err != nil {
		t.Fatal(err)
	}
	presp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode != http.StatusCreated {
		t.Fatalf("put status %d", presp.StatusCode)
	}
	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	text, err := io.ReadAll(mr.Body)
	if err != nil {
		t.Fatal(err)
	}
	exposition := string(text)
	for _, want := range []string{
		"# TYPE dixq_queries_total counter",
		`dixq_queries_total{engine="di-opt",outcome="ok"}`,
		"# TYPE dixq_query_duration_seconds histogram",
		"dixq_query_duration_seconds_count",
		"dixq_active_queries",
		"dixq_plan_cache_misses_total",
		"# TYPE dixq_catalog_version gauge",
		"dixq_catalog_version",
		"dixq_catalog_documents",
		`dixq_doc_updates_total{op="put"}`,
		"# TYPE dixq_admission_rejections_total counter",
		"dixq_admission_queue_depth",
		"dixq_admission_wait_seconds",
		"dixq_snapshots_pinned",
	} {
		if !strings.Contains(exposition, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestTracesEndpoint samples every query (TraceSample: 1) and checks the
// trace shape: parse/plan-cache/execute spans, per-operator children for
// a DI engine, and the ?n= limit.
func TestTracesEndpoint(t *testing.T) {
	ts := testServer(t, Config{TraceSample: 1})
	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, ts.URL+"/query", QueryRequest{Query: dixq.XMarkQ8})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query status %d: %s", resp.StatusCode, body)
		}
	}
	get := func(url string) TracesResponse {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out TracesResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	out := get(ts.URL + "/debug/traces")
	if out.SampleEvery != 1 {
		t.Errorf("sample_every = %d, want 1", out.SampleEvery)
	}
	if len(out.Traces) != 2 {
		t.Fatalf("got %d traces, want 2", len(out.Traces))
	}
	// Newest first: the second query hit the plan cache.
	tr := out.Traces[0]
	if tr.Engine != "di-opt" || tr.Outcome != "ok" || tr.DurationNS <= 0 {
		t.Fatalf("trace = %+v", tr)
	}
	if !strings.Contains(tr.Query, "document(") {
		t.Errorf("trace query = %q", tr.Query)
	}
	spans := map[string]dixqSpan{}
	for _, sp := range tr.Spans {
		spans[sp.Name] = dixqSpan{attrs: sp.Attrs, children: len(sp.Children)}
	}
	if sp, ok := spans["plan-cache"]; !ok || sp.attrs["hit"] != "true" {
		t.Errorf("second query's plan-cache span = %+v", spans["plan-cache"])
	}
	if sp, ok := spans["execute"]; !ok || sp.children == 0 {
		t.Errorf("execute span missing operator children: %+v", spans["execute"])
	}
	// The first (oldest) query parsed from scratch.
	first := out.Traces[1]
	foundParse := false
	for _, sp := range first.Spans {
		if sp.Name == "parse-compile" {
			foundParse = true
		}
	}
	if !foundParse {
		t.Errorf("first query missing parse-compile span: %+v", first.Spans)
	}
	// ?n= limits, newest first.
	if limited := get(ts.URL + "/debug/traces?n=1"); len(limited.Traces) != 1 ||
		limited.Traces[0].ID != tr.ID {
		t.Errorf("n=1 returned %d traces", len(limited.Traces))
	}
	// Bad n is a JSON 400.
	resp, err := http.Get(ts.URL + "/debug/traces?n=x")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad n status = %d", resp.StatusCode)
	}
}

// TestTraceSpansEqualExplainAnalyze pins that a sampled trace describes
// the very execution /explain analyzes: for each DI engine, the operator
// child spans of a traced /query carry the same names, calls and rows — in
// the same plan order — as the operators array of POST /explain
// {"analyze":true} for that query.
func TestTraceSpansEqualExplainAnalyze(t *testing.T) {
	ts := testServer(t, Config{TraceSample: 1})
	for _, engine := range []string{"di-opt", "di-msj", "di-nlj"} {
		req := QueryRequest{Query: dixq.XMarkQ8, Engine: engine}
		if resp, body := postJSON(t, ts.URL+"/query", req); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: query status %d: %s", engine, resp.StatusCode, body)
		}
		resp, err := http.Get(ts.URL + "/debug/traces?n=1")
		if err != nil {
			t.Fatal(err)
		}
		var traces TracesResponse
		err = json.NewDecoder(resp.Body).Decode(&traces)
		resp.Body.Close()
		if err != nil || len(traces.Traces) != 1 || traces.Traces[0].Engine != engine {
			t.Fatalf("%s: traces = %+v (%v)", engine, traces, err)
		}
		var spans []obs.Span
		for _, sp := range traces.Traces[0].Spans {
			if sp.Name == "execute" {
				spans = sp.Children
			}
		}
		req.Analyze = true
		eresp, body := postJSON(t, ts.URL+"/explain", req)
		if eresp.StatusCode != http.StatusOK {
			t.Fatalf("%s: explain status %d: %s", engine, eresp.StatusCode, body)
		}
		var explained ExplainResponse
		if err := json.Unmarshal(body, &explained); err != nil {
			t.Fatal(err)
		}
		if len(spans) == 0 || len(spans) != len(explained.Operators) {
			t.Fatalf("%s: %d operator spans, %d explained operators", engine, len(spans), len(explained.Operators))
		}
		for i, op := range explained.Operators {
			if sp := spans[i]; sp.Name != op.Op || sp.Calls != op.Calls || sp.Rows != op.Rows {
				t.Errorf("%s: operator %d: span %s calls=%d rows=%d, explain %s calls=%d rows=%d",
					engine, i, sp.Name, sp.Calls, sp.Rows, op.Op, op.Calls, op.Rows)
			}
		}
	}
}

type dixqSpan struct {
	attrs    map[string]string
	children int
}

// TestTracingDisabled checks that a negative TraceSample turns sampling
// off entirely.
func TestTracingDisabled(t *testing.T) {
	ts := testServer(t, Config{TraceSample: -1})
	resp, body := postJSON(t, ts.URL+"/query", QueryRequest{Query: dixq.XMarkQ8})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d: %s", resp.StatusCode, body)
	}
	tr, err := http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Body.Close()
	var out TracesResponse
	if err := json.NewDecoder(tr.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.SampleEvery != 0 || len(out.Traces) != 0 {
		t.Fatalf("disabled tracing returned %+v", out)
	}
}

// TestTraceQueryTruncated bounds the stored query text.
func TestTraceQueryTruncated(t *testing.T) {
	long := dixq.XMarkQ8 + strings.Repeat(" (: padding :)", 400)
	if len(long) <= traceQueryLimit {
		t.Fatal("test query not long enough")
	}
	ts := testServer(t, Config{TraceSample: 1})
	resp, body := postJSON(t, ts.URL+"/query", QueryRequest{Query: long})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d: %s", resp.StatusCode, body)
	}
	tr, err := http.Get(ts.URL + "/debug/traces?n=1")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Body.Close()
	var out TracesResponse
	if err := json.NewDecoder(tr.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Traces) != 1 || len(out.Traces[0].Query) > traceQueryLimit+len("…") {
		t.Fatalf("trace query not truncated: %d traces, %d bytes",
			len(out.Traces), len(out.Traces[0].Query))
	}
}

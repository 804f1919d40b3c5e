package server

import (
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestDeepDocumentPut: a 100,000-deep document (700 KB) is stored by
// PUT /docs with 201 and under 200 MB allocated in all, and the server
// answers the next request. The dataguide holds one class per level, so
// a class holding its rendered path made this request hold O(depth²)
// bytes and end the process.
func TestDeepDocumentPut(t *testing.T) {
	if testing.Short() {
		t.Skip("stores a 100,000-deep document")
	}
	const depth = 100_000
	ts, _ := lifecycleServer(t, Config{}, map[string]string{"d.xml": `<r><a>1</a></r>`})
	doc := strings.Repeat("<a>", depth) + strings.Repeat("</a>", depth)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var put DocResponse
	resp := do(t, http.MethodPut, ts.URL+"/docs/deep.xml", "application/xml", doc, &put)
	runtime.ReadMemStats(&after)
	if resp.StatusCode != http.StatusCreated || put.Nodes != depth {
		t.Fatalf("PUT of a %d-deep document: %d %+v", depth, resp.StatusCode, put)
	}
	alloc := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	t.Logf("PUT of a %d-deep document allocated %.1f MB", depth, alloc)
	if alloc >= 200 {
		t.Errorf("PUT allocated %.1f MB, want < 200 MB", alloc)
	}
	q, body := postJSON(t, ts.URL+"/query", QueryRequest{Query: `document("d.xml")/r/a`})
	if q.StatusCode != http.StatusOK {
		t.Fatalf("query after the deep PUT: %d %s", q.StatusCode, body)
	}
}

// TestQueryNestingLimit: queries nested past the parser's limit — a
// 100,000-deep constructor (700 KB, inside the body cap) and 100,000
// nested parentheses — are a 400 within a second, and the server answers
// the next request.
func TestQueryNestingLimit(t *testing.T) {
	ts := testServer(t, Config{})
	const depth = 100_000
	for name, query := range map[string]string{
		"constructors": strings.Repeat("<a>", depth) + strings.Repeat("</a>", depth),
		"parentheses":  strings.Repeat("(", depth) + "1" + strings.Repeat(")", depth),
	} {
		// Written by hand: json.Marshal would escape each '<' to six bytes
		// and push the constructors past the body cap.
		start := time.Now()
		var out errorResponse
		resp := do(t, http.MethodPost, ts.URL+"/query", "application/json", `{"query":"`+query+`"}`, &out)
		if took := time.Since(start); resp.StatusCode != http.StatusBadRequest || took > time.Second {
			t.Errorf("%s: status %d after %v (%.80s), want 400 within 1s", name, resp.StatusCode, took, out.Error)
		}
		if !strings.Contains(out.Error, "nests deeper") {
			t.Errorf("%s: error %.200q does not name the nesting limit", name, out.Error)
		}
	}
	resp, body := postJSON(t, ts.URL+"/query", QueryRequest{Query: `document("auction.xml")/site/people/person/name`})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query after the rejected ones: %d %s", resp.StatusCode, body)
	}
}

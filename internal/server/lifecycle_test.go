package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dixq"
	"dixq/internal/obs"
)

// lifecycleServer builds a server with direct access to the *Server.
func lifecycleServer(t *testing.T, cfg Config, docs map[string]string) (*httptest.Server, *Server) {
	t.Helper()
	parsed := map[string]*dixq.Document{}
	for name, xml := range docs {
		d, err := dixq.ParseDocument(xml)
		if err != nil {
			t.Fatal(err)
		}
		parsed[name] = d
	}
	srv := New(parsed, cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)
	return ts, srv
}

// do issues a method+body request and decodes the JSON response.
func do(t *testing.T, method, url, contentType string, body string, out any) *http.Response {
	t.Helper()
	var rd *strings.Reader
	if body == "" {
		rd = strings.NewReader("")
	} else {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding response: %v", method, url, err)
		}
	}
	return resp
}

// TestDocumentLifecycle drives a document from birth to drop over HTTP:
// PUT creates (201), GET sees it, POST updates it structurally, PUT
// replaces (200), DELETE drops it, and every write advances the catalog
// version.
func TestDocumentLifecycle(t *testing.T) {
	ts, srv := lifecycleServer(t, Config{}, nil)

	var put DocResponse
	resp := do(t, http.MethodPut, ts.URL+"/docs/d.xml", "application/xml",
		`<r><a>1</a></r>`, &put)
	if resp.StatusCode != http.StatusCreated || !put.Created {
		t.Fatalf("create: %d %+v", resp.StatusCode, put)
	}
	if put.Nodes != 3 {
		t.Errorf("nodes = %d, want 3 (r, a, text)", put.Nodes)
	}

	var got DocGetResponse
	resp = do(t, http.MethodGet, ts.URL+"/docs/d.xml", "", "", &got)
	if resp.StatusCode != http.StatusOK || got.Name != "d.xml" || got.Nodes != 3 {
		t.Fatalf("get: %d %+v", resp.StatusCode, got)
	}

	// Structural update: append a child under the root.
	var upd DocResponse
	resp = do(t, http.MethodPost, ts.URL+"/docs/d.xml", "application/json",
		`{"op":"append-child","path":[0],"xml":"<b>2</b>"}`, &upd)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update: %d %+v", resp.StatusCode, upd)
	}
	if upd.Version <= put.Version {
		t.Errorf("update version %d did not advance past %d", upd.Version, put.Version)
	}
	if upd.Nodes != 5 {
		t.Errorf("post-update nodes = %d, want 5", upd.Nodes)
	}
	q, _ := postJSON(t, ts.URL+"/query", QueryRequest{Query: `document("d.xml")/r/b`})
	if q.StatusCode != http.StatusOK {
		t.Fatalf("query after update: %d", q.StatusCode)
	}

	// Replace.
	var rep DocResponse
	resp = do(t, http.MethodPut, ts.URL+"/docs/d.xml", "application/xml", `<r/>`, &rep)
	if resp.StatusCode != http.StatusOK || rep.Created {
		t.Fatalf("replace: %d %+v", resp.StatusCode, rep)
	}

	// Drop.
	var del DocResponse
	resp = do(t, http.MethodDelete, ts.URL+"/docs/d.xml", "", "", &del)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %d", resp.StatusCode)
	}
	if del.Version <= rep.Version {
		t.Errorf("delete version %d did not advance past %d", del.Version, rep.Version)
	}
	resp = do(t, http.MethodGet, ts.URL+"/docs/d.xml", "", "", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get after delete: %d, want 404", resp.StatusCode)
	}
	if v := srv.cat.Version(); v != del.Version {
		t.Errorf("catalog version %d, response said %d", v, del.Version)
	}
}

// TestDocLifecycleErrors: the malformed and missing cases.
func TestDocLifecycleErrors(t *testing.T) {
	ts, _ := lifecycleServer(t, Config{}, map[string]string{"d.xml": `<r><a/></r>`})
	cases := []struct {
		method, path, body string
		status             int
	}{
		{http.MethodPut, "/docs/bad.xml", `not xml <<<`, http.StatusBadRequest},
		{http.MethodPut, "/docs/empty.xml", ``, http.StatusBadRequest},
		{http.MethodPut, "/docs/f.xml?file=some.xml", ``, http.StatusBadRequest}, // no DocDir
		{http.MethodDelete, "/docs/ghost.xml", ``, http.StatusNotFound},
		{http.MethodPost, "/docs/ghost.xml", `{"op":"delete","path":[0]}`, http.StatusNotFound},
		{http.MethodPost, "/docs/d.xml", `{"op":"detonate","path":[0]}`, http.StatusBadRequest},
		{http.MethodPost, "/docs/d.xml", `{"op":"append-child","path":[0]}`, http.StatusBadRequest},      // no fragment
		{http.MethodPost, "/docs/d.xml", `{"op":"delete","path":[0,9]}`, http.StatusUnprocessableEntity}, // no such node
		{http.MethodPost, "/docs/d.xml", `{"op":"delete","path":[]}`, http.StatusUnprocessableEntity},
		{http.MethodPost, "/docs/d.xml", `{"op":"append-child","path":[0],"xml":"<<<"}`, http.StatusBadRequest},
		{http.MethodPost, "/docs/d.xml", `not json`, http.StatusBadRequest},
	}
	for _, tt := range cases {
		resp := do(t, tt.method, ts.URL+tt.path, "application/json", tt.body, nil)
		if resp.StatusCode != tt.status {
			t.Errorf("%s %s %q: status %d, want %d", tt.method, tt.path, tt.body, resp.StatusCode, tt.status)
		}
	}
}

// TestDocPutFromFile: PUT ?file= loads XML and .dixq stores from the
// configured directory, and path escapes are refused.
func TestDocPutFromFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "doc.xml"), []byte(`<r><a>7</a></r>`), 0o644); err != nil {
		t.Fatal(err)
	}
	stored, err := dixq.ParseDocument(`<s><b/></s>`)
	if err != nil {
		t.Fatal(err)
	}
	if err := stored.SaveEncoded(filepath.Join(dir, "doc.dixq")); err != nil {
		t.Fatal(err)
	}
	ts, _ := lifecycleServer(t, Config{DocDir: dir}, nil)

	var put DocResponse
	resp := do(t, http.MethodPut, ts.URL+"/docs/a.xml?file=doc.xml", "", "", &put)
	if resp.StatusCode != http.StatusCreated || put.Nodes != 3 {
		t.Fatalf("file load: %d %+v", resp.StatusCode, put)
	}
	resp = do(t, http.MethodPut, ts.URL+"/docs/b.xml?file=doc.dixq", "", "", &put)
	if resp.StatusCode != http.StatusCreated || put.Nodes != 2 {
		t.Fatalf("store load: %d %+v", resp.StatusCode, put)
	}
	for _, escape := range []string{"../secret.xml", "/etc/passwd", "a/../../b.xml"} {
		resp = do(t, http.MethodPut, ts.URL+"/docs/x.xml?file="+escape, "", "", nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("escape %q: status %d, want 400", escape, resp.StatusCode)
		}
	}
	resp = do(t, http.MethodPut, ts.URL+"/docs/x.xml?file=missing.xml", "", "", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing file: status %d, want 400", resp.StatusCode)
	}
}

// TestDropReloadNeverServesStalePlan is the plan-cache regression test
// for the document lifecycle: DELETE a document, reload the same name
// with different content, and the same query text must be re-planned
// against the new content — a version-blind cache would serve the plan
// (and the estimates) of the dropped document.
func TestDropReloadNeverServesStalePlan(t *testing.T) {
	ts, srv := lifecycleServer(t, Config{}, map[string]string{"d.xml": `<r><v>1</v></r>`})
	query := QueryRequest{Query: `document("d.xml")/r/v`}

	run := func(wantXML string) {
		t.Helper()
		resp, body := postJSON(t, ts.URL+"/query", query)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var out QueryResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if out.XML != wantXML {
			t.Fatalf("result = %q, want %q", out.XML, wantXML)
		}
	}
	run(`<v>1</v>`) // compile + cache
	run(`<v>1</v>`) // cache hit
	hits, misses := srv.plans.counts()
	if hits != 1 || misses != 1 {
		t.Fatalf("warmup hits/misses = %d/%d, want 1/1", hits, misses)
	}

	if resp := do(t, http.MethodDelete, ts.URL+"/docs/d.xml", "", "", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %d", resp.StatusCode)
	}
	if resp := do(t, http.MethodPut, ts.URL+"/docs/d.xml", "application/xml",
		`<r><v>2</v></r>`, nil); resp.StatusCode != http.StatusCreated {
		t.Fatalf("reload: %d", resp.StatusCode)
	}

	run(`<v>2</v>`) // must see the new content, via a fresh compile
	if _, misses = srv.plans.counts(); misses != 2 {
		t.Fatalf("misses after drop+reload = %d, want 2 (stale plan served?)", misses)
	}

	// Structural updates invalidate the same way.
	if resp := do(t, http.MethodPost, ts.URL+"/docs/d.xml", "application/json",
		`{"op":"append-child","path":[0],"xml":"<v>3</v>"}`, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("update: %d", resp.StatusCode)
	}
	run(`<v>2</v><v>3</v>`)
	if _, misses = srv.plans.counts(); misses != 3 {
		t.Fatalf("misses after update = %d, want 3", misses)
	}
}

// TestQueryAfterUpdateSeeks: an update publishes the document with its
// spliced index, so the very next query's path chain is an index seek —
// no reindex to wait for — and answers the new content.
func TestQueryAfterUpdateSeeks(t *testing.T) {
	ts, srv := lifecycleServer(t, Config{}, map[string]string{"d.xml": `<r><a>1</a></r>`})
	resp := do(t, http.MethodPost, ts.URL+"/docs/d.xml", "application/json",
		`{"op":"append-child","path":[0],"xml":"<a>2</a>"}`, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update: %d", resp.StatusCode)
	}
	seeks := obs.IndexSeeks.Value()
	q, body := postJSON(t, ts.URL+"/query", QueryRequest{Query: `document("d.xml")/r/a`})
	if q.StatusCode != http.StatusOK {
		t.Fatalf("query after update: %d %s", q.StatusCode, body)
	}
	var out QueryResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.XML != `<a>1</a><a>2</a>` {
		t.Errorf("query after update = %q", out.XML)
	}
	if d := obs.IndexSeeks.Value() - seeks; d != 1 {
		t.Errorf("index seeks +%d, want +1", d)
	}
	if v := srv.cat.Version(); v != 2 {
		t.Errorf("version = %d after add+update, want 2: something republished", v)
	}
}

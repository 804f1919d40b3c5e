package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"dixq"
	"dixq/internal/exec"
	"dixq/internal/obs"
)

// jsonBody marshals v for a request body.
func jsonBody(t *testing.T, v any) *bytes.Reader {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(data)
}

// admitOK admits and fails the test on refusal.
func admitOK(t *testing.T, a *admitter, tenant string) func() {
	t.Helper()
	release, aerr := a.admit(context.Background(), tenant)
	if aerr != nil {
		t.Fatalf("admit(%q) refused: %+v", tenant, aerr)
	}
	return release
}

func TestAdmitterUnlimited(t *testing.T) {
	a := newAdmitter(Config{})
	var releases []func()
	for i := 0; i < 50; i++ {
		releases = append(releases, admitOK(t, a, "default"))
	}
	for _, r := range releases {
		r()
	}
	if a.Peak() != 50 {
		t.Errorf("peak = %d, want 50", a.Peak())
	}
}

func TestAdmitterConcurrencyBound(t *testing.T) {
	// No queue: the third concurrent request is refused immediately.
	a := newAdmitter(Config{MaxConcurrent: 2, QueueDepth: -1})
	r1 := admitOK(t, a, "t")
	r2 := admitOK(t, a, "t")
	if _, aerr := a.admit(context.Background(), "t"); aerr == nil {
		t.Fatal("third request admitted over MaxConcurrent=2")
	} else if aerr.status != http.StatusTooManyRequests || aerr.reason != "queue_full" {
		t.Fatalf("refusal = %+v", aerr)
	}
	r1()
	r3 := admitOK(t, a, "t")
	r3()
	r2()
	r2() // idempotent release must not free a second slot
	r1()
	got := admitOK(t, a, "t")
	got2 := admitOK(t, a, "t")
	got()
	got2()
	if a.Peak() != 2 {
		t.Errorf("peak = %d, want 2", a.Peak())
	}
}

func TestAdmitterQueueHandsOffSlot(t *testing.T) {
	a := newAdmitter(Config{MaxConcurrent: 1, QueueTimeout: 5 * time.Second})
	release := admitOK(t, a, "t")
	admitted := make(chan func(), 1)
	go func() {
		r, aerr := a.admit(context.Background(), "t")
		if aerr != nil {
			admitted <- nil
			return
		}
		admitted <- r
	}()
	// The waiter must be queued, not admitted, until the slot frees.
	select {
	case <-admitted:
		t.Fatal("second request admitted while the slot was held")
	case <-time.After(50 * time.Millisecond):
	}
	release()
	select {
	case r := <-admitted:
		if r == nil {
			t.Fatal("queued request was refused after the slot freed")
		}
		r()
	case <-time.After(2 * time.Second):
		t.Fatal("queued request never admitted")
	}
}

func TestAdmitterQueueTimeout(t *testing.T) {
	a := newAdmitter(Config{MaxConcurrent: 1, QueueTimeout: 30 * time.Millisecond})
	release := admitOK(t, a, "t")
	defer release()
	start := time.Now()
	if _, aerr := a.admit(context.Background(), "t"); aerr == nil {
		t.Fatal("request admitted past a held slot")
	} else if aerr.reason != "queue_timeout" || aerr.status != http.StatusTooManyRequests {
		t.Fatalf("refusal = %+v", aerr)
	}
	if waited := time.Since(start); waited < 30*time.Millisecond {
		t.Errorf("refused after %v, before the queue timeout", waited)
	}
}

func TestAdmitterTenantIsolation(t *testing.T) {
	a := newAdmitter(Config{TenantConcurrent: 1})
	rA := admitOK(t, a, "alice")
	// Alice is at her limit; Bob is unaffected.
	if _, aerr := a.admit(context.Background(), "alice"); aerr == nil {
		t.Fatal("alice admitted over her concurrency limit")
	} else if aerr.reason != "tenant_concurrency" {
		t.Fatalf("refusal = %+v", aerr)
	}
	rB := admitOK(t, a, "bob")
	rB()
	rA()
	rA2 := admitOK(t, a, "alice")
	rA2()
}

func TestAdmitterTenantMemory(t *testing.T) {
	// Each admitted request reserves MemBudget (64) against the tenant's
	// 128-byte budget: two fit, the third is refused.
	a := newAdmitter(Config{MemBudget: 64, TenantMemBudget: 128})
	r1 := admitOK(t, a, "t")
	r2 := admitOK(t, a, "t")
	if _, aerr := a.admit(context.Background(), "t"); aerr == nil {
		t.Fatal("third request admitted over the tenant memory budget")
	} else if aerr.reason != "tenant_memory" {
		t.Fatalf("refusal = %+v", aerr)
	}
	r1()
	r3 := admitOK(t, a, "t")
	r3()
	r2()
	// Full release must leave no tenant state behind.
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.tenants) != 0 {
		t.Errorf("tenant map not empty after release: %+v", a.tenants)
	}
}

func TestAdmitterDraining(t *testing.T) {
	a := newAdmitter(Config{})
	a.draining = true
	if _, aerr := a.admit(context.Background(), "t"); aerr == nil {
		t.Fatal("request admitted while draining")
	} else if aerr.status != http.StatusServiceUnavailable || aerr.reason != "draining" {
		t.Fatalf("refusal = %+v", aerr)
	}
}

// TestAdmissionOverHTTP drives refusals end to end: a held execution
// slot turns the next request into a 429 with Retry-After, and releasing
// it restores service. The slot is held directly on the admitter, so the
// test is deterministic.
func TestAdmissionOverHTTP(t *testing.T) {
	doc, err := dixq.ParseDocument(dixq.XMarkFigure1)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(map[string]*dixq.Document{"auction.xml": doc},
		Config{MaxConcurrent: 1, QueueDepth: -1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	release, aerr := srv.adm.admit(context.Background(), "holder")
	if aerr != nil {
		t.Fatalf("holding the slot: %+v", aerr)
	}
	resp, body := postJSON(t, ts.URL+"/query", QueryRequest{Query: dixq.XMarkQ8})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d (%s), want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without a Retry-After header")
	}
	// Writes pass the same admission control.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/docs/auction.xml", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("DELETE status = %d, want 429", dresp.StatusCode)
	}
	// Read-only endpoints are never refused.
	gresp, err := http.Get(ts.URL + "/docs")
	if err != nil {
		t.Fatal(err)
	}
	gresp.Body.Close()
	if gresp.StatusCode != http.StatusOK {
		t.Fatalf("GET /docs status = %d while saturated", gresp.StatusCode)
	}

	release()
	resp, body = postJSON(t, ts.URL+"/query", QueryRequest{Query: dixq.XMarkQ8})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-release status = %d (%s)", resp.StatusCode, body)
	}
}

// TestTenantIsolationOverHTTP: one tenant at its concurrency limit gets
// 429 while another tenant's identical request is served.
func TestTenantIsolationOverHTTP(t *testing.T) {
	doc, err := dixq.ParseDocument(dixq.XMarkFigure1)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(map[string]*dixq.Document{"auction.xml": doc}, Config{TenantConcurrent: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if aerr := srv.adm.reserveTenant("alice"); aerr != nil {
		t.Fatalf("reserving alice's slot: %+v", aerr)
	}
	defer srv.adm.unreserveTenant("alice")

	post := func(tenant string) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/query",
			jsonBody(t, QueryRequest{Query: dixq.XMarkQ8}))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Tenant", tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := post("alice"); got != http.StatusTooManyRequests {
		t.Errorf("alice status = %d, want 429", got)
	}
	if got := post("bob"); got != http.StatusOK {
		t.Errorf("bob status = %d, want 200", got)
	}
}

// TestDrainOverHTTP: Drain turns new requests into 503s while admitted
// work runs to completion.
func TestDrainOverHTTP(t *testing.T) {
	doc, err := dixq.ParseDocument(dixq.XMarkFigure1)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(map[string]*dixq.Document{"auction.xml": doc}, Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	release, aerr := srv.adm.admit(context.Background(), "inflight")
	if aerr != nil {
		t.Fatal(aerr)
	}
	srv.Drain()
	resp, _ := postJSON(t, ts.URL+"/query", QueryRequest{Query: dixq.XMarkQ8})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status while draining = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without a Retry-After header")
	}
	release() // the in-flight request finishes normally
}

// TestAdmitterConcurrentStress hammers a small admitter from many
// goroutines and checks the invariants: the peak never exceeds the
// bound, and everything drains to zero.
func TestAdmitterConcurrentStress(t *testing.T) {
	const bound = 3
	a := newAdmitter(Config{MaxConcurrent: bound, QueueTimeout: 2 * time.Second, QueueDepth: 64})
	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				release, aerr := a.admit(context.Background(), "t")
				if aerr != nil {
					continue
				}
				release()
			}
		}()
	}
	wg.Wait()
	if p := a.Peak(); p > bound {
		t.Errorf("peak %d exceeded the bound %d", p, bound)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.active != 0 || a.queued != 0 || len(a.tenants) != 0 {
		t.Errorf("not drained: active=%d queued=%d tenants=%d", a.active, a.queued, len(a.tenants))
	}
}

// TestRecoveredPanicAnswers500 panics inside an admitted handler, on the
// second goroutine of a pair (exec.Pair re-raises it on the handler's),
// behind the recover middleware and admission with one execution slot
// and no queue. Each such request gets a JSON 500 and is counted, the pair
// leaves no goroutine running, and the slot comes back: the server then
// answers a query, which would get 429 if the slot had leaked.
func TestRecoveredPanicAnswers500(t *testing.T) {
	doc, err := dixq.ParseDocument(dixq.XMarkFigure1)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(map[string]*dixq.Document{"auction.xml": doc},
		Config{MaxConcurrent: 1, QueueDepth: -1})
	defer srv.Close()
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	mux.HandleFunc("POST /panic", srv.admitted(func(http.ResponseWriter, *http.Request) {
		exec.Pair(func() { panic("side sort failed") }, func() {})
	}))
	ts := httptest.NewServer(recovered(mux))
	defer ts.Close()

	panics := obs.HandlerPanics.Value()
	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, ts.URL+"/panic", QueryRequest{Query: dixq.XMarkQ8})
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("status = %d (%s), want 500", resp.StatusCode, body)
		}
		var e errorResponse
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Fatalf("500 body %q is not a JSON error (%v)", body, err)
		}
	}
	if n := obs.HandlerPanics.Value() - panics; n != 2 {
		t.Errorf("dixq_handler_panics_total rose by %d, want 2", n)
	}
	if n := exec.InFlight(); n != 0 {
		t.Errorf("%d pair goroutines still running after the panics", n)
	}
	if n := srv.adm.admitted(); n != 0 {
		t.Errorf("%d requests still admitted after the panics", n)
	}
	resp, body := postJSON(t, ts.URL+"/query", QueryRequest{Query: dixq.XMarkQ8})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query after the panics: status %d (%s)", resp.StatusCode, body)
	}
}

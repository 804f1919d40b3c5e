package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"dixq"
	"dixq/internal/exitcheck"
	"dixq/internal/obs"
)

// slowServer serves one generated XMark document on which Q8 runs for
// about a second or more under the engines these tests pick (DI-NLJ at
// sf 0.02, or DI-MSJ when every sort spills).
func slowServer(t *testing.T, sf float64, cfg Config) (*httptest.Server, *Server) {
	t.Helper()
	srv := New(map[string]*dixq.Document{"auction.xml": dixq.GenerateXMark(sf, 1)}, cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)
	return ts, srv
}

// admitted reports the requests holding an admission slot.
func (a *admitter) admitted() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.active
}

// reserved reports whether a tenant holds any reservation.
func (a *admitter) reserved(tenant string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.tenants[tenant] != nil
}

// call is one request sent in the background on its own client, so the
// test can cancel it and close its connections.
type call struct {
	client *http.Client
	cancel context.CancelFunc
	done   chan *http.Response // nil when the request failed
}

func send(t *testing.T, url, tenant string, body QueryRequest) *call {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Tenant", tenant)
	c := &call{client: &http.Client{Transport: &http.Transport{}}, cancel: cancel, done: make(chan *http.Response, 1)}
	go func() {
		resp, err := c.client.Do(req)
		if err != nil {
			c.done <- nil
			return
		}
		resp.Body.Close()
		c.done <- resp
	}()
	return c
}

// finish waits for the call's response and closes its connections.
func (c *call) finish() *http.Response {
	resp := <-c.done
	c.cancel()
	c.client.CloseIdleConnections()
	return resp
}

// waitFor polls cond until it holds, failing the test after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestClientDisconnectCancelsQuery drops the client connection while Q8
// runs under DI-NLJ: the handler must return at once, count the query as
// canceled (not as a budget rejection), and give back its admission slot,
// its worker slots and its pinned snapshot.
func TestClientDisconnectCancelsQuery(t *testing.T) {
	ts, srv := slowServer(t, 0.02, Config{Timeout: time.Minute})
	before := exitcheck.Take()
	canceled, rejections := obs.Queries.With("di-nlj", "canceled"), obs.BudgetRejections.Value()
	wasCanceled := canceled.Value()

	c := send(t, ts.URL+"/query", "t", QueryRequest{Query: dixq.XMarkQ8, Engine: "di-nlj"})
	waitFor(t, "the query to be admitted", func() bool { return srv.adm.admitted() == 1 })
	time.Sleep(50 * time.Millisecond) // well inside the run
	dropped := time.Now()
	c.cancel()
	if resp := c.finish(); resp != nil {
		t.Fatalf("the client got a response (%d) after dropping its connection", resp.StatusCode)
	}
	waitFor(t, "the handler to count the cancel", func() bool { return canceled.Value() == wasCanceled+1 })
	t.Logf("handler returned %s after the disconnect", time.Since(dropped))
	if took := time.Since(dropped); took > time.Second {
		t.Errorf("handler returned %s after the disconnect", took)
	}
	if n := obs.BudgetRejections.Value() - rejections; n != 0 {
		t.Errorf("the disconnect counted %d budget rejections", n)
	}
	before.Check(t, "", srv.adm.admitted)
}

// TestCloseCancelsInFlight calls Close while a query is mid-way through
// spilling its sorts: Close must return only after the query has
// released its slot and removed its run files, and the query answers 503.
func TestCloseCancelsInFlight(t *testing.T) {
	dir := t.TempDir()
	ts, srv := slowServer(t, 0.05, Config{MemBudget: 1, SpillDir: dir})
	before := exitcheck.Take()
	canceled := obs.Queries.With("di-msj", "canceled")
	wasCanceled := canceled.Value()

	c := send(t, ts.URL+"/query", "t", QueryRequest{Query: dixq.XMarkQ8, Engine: "di-msj"})
	waitFor(t, "the query to spill", func() bool {
		files, _ := os.ReadDir(dir)
		return len(files) > 0
	})
	srv.Close()
	if n := srv.adm.admitted(); n != 0 {
		t.Errorf("Close returned with %d requests still admitted", n)
	}
	if files, _ := os.ReadDir(dir); len(files) != 0 {
		t.Errorf("Close returned with %d spill files left", len(files))
	}
	if resp := c.finish(); resp == nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("the cancelled query answered %v, want 503", resp)
	}
	if got := canceled.Value() - wasCanceled; got != 1 {
		t.Errorf("%d queries counted as canceled, want 1", got)
	}
	// A closed server refuses new work.
	if resp, _ := postJSON(t, ts.URL+"/query", QueryRequest{Query: dixq.XMarkQ8}); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("status after Close = %d, want 503", resp.StatusCode)
	}
	http.DefaultClient.CloseIdleConnections()
	before.Check(t, dir, srv.adm.admitted)
}

// TestQueuedRequestLeavesOnCancel holds the one execution slot with a
// slow query and queues a second request behind it: when the queued
// request's client goes away, it must leave the queue and free its
// tenant reservation at once, not after the queue timeout.
func TestQueuedRequestLeavesOnCancel(t *testing.T) {
	const queueTimeout = 10 * time.Second
	ts, srv := slowServer(t, 0.02, Config{MaxConcurrent: 1, TenantConcurrent: 4, QueueTimeout: queueTimeout})
	before := exitcheck.Take()
	depth := obs.AdmissionQueueDepth.Value()
	rejected := obs.AdmissionRejections.With("canceled")
	wasRejected := rejected.Value()

	slow := send(t, ts.URL+"/query", "slow", QueryRequest{Query: dixq.XMarkQ8, Engine: "di-nlj"})
	waitFor(t, "the slow query to be admitted", func() bool { return srv.adm.admitted() == 1 })
	queued := send(t, ts.URL+"/query", "queued", QueryRequest{Query: dixq.XMarkQ8})
	waitFor(t, "the second request to queue", func() bool {
		return obs.AdmissionQueueDepth.Value() == depth+1 && srv.adm.reserved("queued")
	})
	left := time.Now()
	queued.cancel()
	waitFor(t, "the queue to empty", func() bool {
		return obs.AdmissionQueueDepth.Value() == depth && !srv.adm.reserved("queued")
	})
	if took := time.Since(left); took > queueTimeout/10 {
		t.Errorf("the cancelled request left the queue after %s (queue timeout %s)", took, queueTimeout)
	}
	if resp := queued.finish(); resp != nil {
		t.Errorf("the cancelled request got a response (%d)", resp.StatusCode)
	}
	if got := rejected.Value() - wasRejected; got != 1 {
		t.Errorf("%d admissions rejected as canceled, want 1", got)
	}
	slow.cancel()
	slow.finish()
	before.Check(t, "", srv.adm.admitted)
}

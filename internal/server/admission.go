package server

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"dixq/internal/obs"
)

// defaultQueueDepth bounds the admission queue when Config leaves
// QueueDepth 0 and MaxConcurrent is set.
const defaultQueueDepth = 64

// defaultQueueTimeout bounds the time a request may wait for an
// execution slot when Config leaves QueueTimeout 0.
const defaultQueueTimeout = 2 * time.Second

// admitError is a refused admission: an HTTP status, a metric reason
// label, and the Retry-After hint in seconds.
type admitError struct {
	status     int
	reason     string
	msg        string
	retryAfter int
}

// tenantBudget tracks one tenant's admitted requests and reserved
// memory.
type tenantBudget struct {
	active int
	mem    int64
}

// admitter is the server's admission controller: a bounded execution
// semaphore with a bounded, time-limited wait queue in front of it, plus
// per-tenant concurrency and memory reservations. It bounds how many
// requests execute or wait at all, turning overload into fast 429s
// instead of goroutine pileup; since a query runs on at most two
// goroutines (its merge joins' pairs, exec.Pair), that also bounds the
// engine's goroutines.
type admitter struct {
	// sem is the execution semaphore (send = acquire); nil when
	// MaxConcurrent is 0, meaning unlimited.
	sem          chan struct{}
	queueDepth   int
	queueTimeout time.Duration

	tenantConcurrent int
	tenantMem        int64
	// perRequestMem is the memory reservation charged per admitted
	// request against its tenant's budget: the server's per-query
	// MemBudget (the accounted sort footprint a query may hold before
	// spilling).
	perRequestMem int64

	// requests counts requests from admit to release, for Server.Close to
	// wait on; Add runs under mu and only while not draining.
	requests sync.WaitGroup

	mu       sync.Mutex
	draining bool
	queued   int
	active   int
	peak     int
	tenants  map[string]*tenantBudget
}

func newAdmitter(cfg Config) *admitter {
	a := &admitter{
		queueDepth:       cfg.QueueDepth,
		queueTimeout:     cfg.QueueTimeout,
		tenantConcurrent: cfg.TenantConcurrent,
		tenantMem:        cfg.TenantMemBudget,
		perRequestMem:    cfg.MemBudget,
		tenants:          map[string]*tenantBudget{},
	}
	if cfg.MaxConcurrent > 0 {
		a.sem = make(chan struct{}, cfg.MaxConcurrent)
	}
	if a.queueDepth == 0 {
		a.queueDepth = defaultQueueDepth
	} else if a.queueDepth < 0 {
		a.queueDepth = 0
	}
	if a.queueTimeout <= 0 {
		a.queueTimeout = defaultQueueTimeout
	}
	return a
}

// tenantOf extracts the request's tenant identity (the X-Tenant header;
// absent means the shared "default" tenant).
func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	return "default"
}

// reserveTenant charges one request against the tenant's concurrency and
// memory budgets, or reports why it cannot.
func (a *admitter) reserveTenant(tenant string) *admitError {
	if a.tenantConcurrent <= 0 && a.tenantMem <= 0 {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	tb := a.tenants[tenant]
	if tb == nil {
		tb = &tenantBudget{}
		a.tenants[tenant] = tb
	}
	if a.tenantConcurrent > 0 && tb.active >= a.tenantConcurrent {
		return &admitError{
			status: http.StatusTooManyRequests, reason: "tenant_concurrency", retryAfter: 1,
			msg: fmt.Sprintf("tenant %q is at its concurrency limit (%d)", tenant, a.tenantConcurrent),
		}
	}
	if a.tenantMem > 0 && tb.mem+a.perRequestMem > a.tenantMem {
		return &admitError{
			status: http.StatusTooManyRequests, reason: "tenant_memory", retryAfter: 1,
			msg: fmt.Sprintf("tenant %q is at its memory budget (%d bytes)", tenant, a.tenantMem),
		}
	}
	tb.active++
	tb.mem += a.perRequestMem
	return nil
}

func (a *admitter) unreserveTenant(tenant string) {
	if a.tenantConcurrent <= 0 && a.tenantMem <= 0 {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if tb := a.tenants[tenant]; tb != nil {
		tb.active--
		tb.mem -= a.perRequestMem
		if tb.active <= 0 && tb.mem <= 0 {
			delete(a.tenants, tenant)
		}
	}
}

// Peak returns the high-water mark of concurrently admitted requests.
func (a *admitter) Peak() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.peak
}

// acquire takes an execution slot, waiting in the bounded queue if none
// is free, until the queue timeout or the request's context ends. Callers
// have the tenant reservation; a non-nil return means no slot was taken.
func (a *admitter) acquire(ctx context.Context) *admitError {
	select {
	case a.sem <- struct{}{}:
		return nil
	default:
	}
	// No free slot: join the queue if it has room.
	a.mu.Lock()
	if a.queued >= a.queueDepth {
		a.mu.Unlock()
		return &admitError{
			status: http.StatusTooManyRequests, reason: "queue_full", retryAfter: 1,
			msg: fmt.Sprintf("admission queue is full (%d waiting)", a.queueDepth),
		}
	}
	a.queued++
	a.mu.Unlock()
	obs.AdmissionQueueDepth.Inc()
	start := time.Now()
	timer := time.NewTimer(a.queueTimeout)
	defer func() {
		timer.Stop()
		obs.AdmissionQueueDepth.Dec()
		a.mu.Lock()
		a.queued--
		a.mu.Unlock()
	}()
	select {
	case a.sem <- struct{}{}:
		obs.AdmissionWait.Observe(time.Since(start))
		return nil
	case <-timer.C:
		return &admitError{
			status: http.StatusTooManyRequests, reason: "queue_timeout", retryAfter: 1,
			msg: fmt.Sprintf("no execution slot within %s", a.queueTimeout),
		}
	case <-ctx.Done():
		return &admitError{
			status: http.StatusServiceUnavailable, reason: "canceled", retryAfter: 1,
			msg: "request cancelled while queued",
		}
	}
}

// admit attempts to admit one request for a tenant. On success it
// returns a release closure (idempotent; call it when the request
// finishes). On refusal it returns the rejection.
func (a *admitter) admit(ctx context.Context, tenant string) (func(), *admitError) {
	a.mu.Lock()
	if a.draining {
		a.mu.Unlock()
		return nil, &admitError{
			status: http.StatusServiceUnavailable, reason: "draining", retryAfter: 1,
			msg: "server is draining",
		}
	}
	a.requests.Add(1)
	a.mu.Unlock()
	aerr := a.reserveTenant(tenant)
	if aerr == nil && a.sem != nil {
		if aerr = a.acquire(ctx); aerr != nil {
			a.unreserveTenant(tenant)
		}
	}
	if aerr != nil {
		a.requests.Done()
		return nil, aerr
	}
	a.mu.Lock()
	a.active++
	a.peak = max(a.peak, a.active)
	a.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			a.mu.Lock()
			a.active--
			a.mu.Unlock()
			a.unreserveTenant(tenant)
			if a.sem != nil {
				<-a.sem
			}
			a.requests.Done()
		})
	}, nil
}

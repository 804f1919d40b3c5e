package obs

import (
	"sync"
	"sync/atomic"
)

// Span is one timed phase of a traced query. The server records the
// pipeline phases (parse, plan-cache, execute) as top-level spans; for DI
// engines the execute span carries one child per plan operator, populated
// from the same plan.RunStats exclusive-time machinery that feeds EXPLAIN
// ANALYZE — child durations are exclusive and sum to the execute span.
type Span struct {
	Name       string `json:"name"`
	DurationNS int64  `json:"duration_ns"`
	// Calls/Rows/Spilled are operator actuals, present on plan-node child
	// spans.
	Calls int   `json:"calls,omitempty"`
	Rows  int64 `json:"rows,omitempty"`
	// Batches and Bytes are always zero — path chains filter their source
	// rows in place and process no chunks — and are omitted from the JSON;
	// the fields remain so that code reading them still compiles.
	Batches int   `json:"batches,omitempty"`
	Bytes   int64 `json:"bytes,omitempty"`
	Spilled int64 `json:"spilled,omitempty"`
	// Skipped is the number of relation tuples an index access path never
	// read (index seeks and dataguide-pruned chains).
	Skipped int64 `json:"skipped,omitempty"`
	// Workers is the largest pool-worker count one of the operator's
	// parallel phases observed (0: no parallel phase ran).
	Workers int `json:"workers,omitempty"`
	// Attrs carries small string annotations (e.g. plan-cache "hit").
	Attrs    map[string]string `json:"attrs,omitempty"`
	Children []Span            `json:"children,omitempty"`
}

// Trace is one sampled query execution.
type Trace struct {
	ID          uint64 `json:"id"`
	Query       string `json:"query"`
	Engine      string `json:"engine"`
	Outcome     string `json:"outcome"`
	StartUnixNS int64  `json:"start_unix_ns"`
	DurationNS  int64  `json:"duration_ns"`
	Spans       []Span `json:"spans"`
}

// DefaultTraceBufferSize is the ring capacity when the caller does not
// configure one.
const DefaultTraceBufferSize = 128

// TraceBuffer is a fixed-capacity ring of the most recent traces. Adds
// overwrite the oldest entry; reads return newest first. Safe for
// concurrent use.
type TraceBuffer struct {
	mu     sync.Mutex
	buf    []Trace
	next   int // slot the next Add writes
	n      int // live entries, <= len(buf)
	lastID uint64
}

// NewTraceBuffer returns a ring holding up to capacity traces
// (DefaultTraceBufferSize when capacity <= 0).
func NewTraceBuffer(capacity int) *TraceBuffer {
	if capacity <= 0 {
		capacity = DefaultTraceBufferSize
	}
	return &TraceBuffer{buf: make([]Trace, capacity)}
}

// Add stores a trace, assigning and returning its ID (monotonic from 1).
func (b *TraceBuffer) Add(t Trace) uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.lastID++
	t.ID = b.lastID
	b.buf[b.next] = t
	b.next = (b.next + 1) % len(b.buf)
	if b.n < len(b.buf) {
		b.n++
	}
	return t.ID
}

// Len returns the number of stored traces.
func (b *TraceBuffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.n
}

// Last returns up to n traces, newest first (all stored traces when
// n <= 0 or n exceeds the count).
func (b *TraceBuffer) Last(n int) []Trace {
	b.mu.Lock()
	defer b.mu.Unlock()
	if n <= 0 || n > b.n {
		n = b.n
	}
	out := make([]Trace, n)
	for i := 0; i < n; i++ {
		out[i] = b.buf[((b.next-1-i)%len(b.buf)+len(b.buf))%len(b.buf)]
	}
	return out
}

// Sampler selects 1 in every N events. A nil sampler selects nothing.
type Sampler struct {
	every uint64
	ctr   atomic.Uint64
}

// NewSampler returns a sampler selecting 1 in every events (1 selects
// everything); every <= 0 returns nil, which never samples.
func NewSampler(every int) *Sampler {
	if every <= 0 {
		return nil
	}
	return &Sampler{every: uint64(every)}
}

// Sample reports whether this event is selected. The first event is
// always selected, so a freshly started server produces a trace
// immediately instead of after N queries.
func (s *Sampler) Sample() bool {
	if s == nil {
		return false
	}
	return (s.ctr.Add(1)-1)%s.every == 0
}

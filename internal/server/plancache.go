package server

import (
	"container/list"
	"fmt"
	"sync"

	"dixq"
	"dixq/internal/obs"
)

// planCache is an LRU of compiled query plans keyed by the request's
// canonicalized (query text, engine, options) tuple. Parsing and
// rewriting a query is pure, and a compiled dixq.Query is immutable and
// safe for concurrent reuse (every Run builds a fresh evaluator), so one
// cached plan can serve many requests. A nil *planCache is a valid
// disabled cache.
type planCache struct {
	mu           sync.Mutex
	cap          int
	ll           *list.List
	items        map[string]*list.Element
	hits, misses uint64
}

type planEntry struct {
	key string
	q   *dixq.Query
}

func newPlanCache(capacity int) *planCache {
	if capacity <= 0 {
		return nil
	}
	return &planCache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*list.Element, capacity),
	}
}

// planKey builds the cache key for a request: the query text, the engine,
// every option that affects the plan or its execution strategy, and the
// version of the catalog snapshot the request pinned. The options are
// canonicalized first — the engine component is the parsed engine's wire
// name (so "" and "di-opt" are one slot), the parallelism component is the
// fully resolved worker bound (request value, else server default, with 0 resolving to
// runtime.GOMAXPROCS(0), exactly as the executor resolves it) — so
// equivalent requests hit the same slot while requests differing in any
// effective knob never collide. (Before options were part of the key, a
// cached entry served requests whose options differed from the ones it
// was first compiled under.) The catalog version folds every document
// change into the key: loads, structural updates, drops, background
// reindexes and statistics refreshes each publish a fresh version, so a
// plan compiled against one snapshot — including one the cost-based
// optimizer shaped around since-recollected statistics, or one whose
// document was dropped and reloaded with different content — is never
// reused against another.
func planKey(req *QueryRequest, engine dixq.Engine, cfg Config, version uint64) string {
	return fmt.Sprintf("%s\x00%s\x00par=%d\x00cat=%d",
		req.Query, engine.Label(), effectiveParallelism(req, cfg), version)
}

// get returns the cached plan for key and promotes it to most-recent.
func (c *planCache) get(key string) (*dixq.Query, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		obs.PlanCacheHits.Inc()
		return el.Value.(*planEntry).q, true
	}
	c.misses++
	obs.PlanCacheMisses.Inc()
	return nil, false
}

// put inserts a plan, evicting the least recently used entry past capacity.
func (c *planCache) put(key string, q *dixq.Query) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*planEntry).q = q
		return
	}
	c.items[key] = c.ll.PushFront(&planEntry{key: key, q: q})
	for c.ll.Len() > c.cap {
		el := c.ll.Back()
		c.ll.Remove(el)
		delete(c.items, el.Value.(*planEntry).key)
	}
}

// counts returns the cumulative hit/miss counters.
func (c *planCache) counts() (hits, misses uint64) {
	if c == nil {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// len returns the number of cached plans.
func (c *planCache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

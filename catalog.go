package dixq

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"dixq/internal/core"
	"dixq/internal/index"
	"dixq/internal/interval"
	"dixq/internal/obs"
	"dixq/internal/stats"
	"dixq/internal/update"
	"dixq/internal/xmltree"
)

// ErrNoDocument reports a catalog operation addressing a document name
// that is not in the catalog.
var ErrNoDocument = errors.New("dixq: no such document")

// ErrNoNode reports an update path that resolves to no node in the
// addressed document.
var ErrNoNode = update.ErrNotFound

// View is what a query runs against: either a live *Catalog (the query
// sees the snapshot current at the moment it starts) or an explicit
// *Snapshot pinned earlier (the query sees exactly that version, however
// many writes have been published since). Both implement it; nothing
// else can.
type View interface {
	view() *Snapshot
}

// Snapshot is one immutable published version of a catalog: each
// document's interval relation — the only form a catalog document takes —
// and the structural-index and statistics sets derived from them, all
// consistent with one another.
// Snapshots are copy-on-write — writers never mutate one in place — so a
// pinned snapshot answers queries identically no matter how many
// versions have been published since, and reading never blocks writing.
type Snapshot struct {
	version uint64
	enc     core.Catalog
	// idx and st hold the per-document structural indexes and statistics.
	// A document freshly mutated by Update has no entry in either (plans
	// over it fall back to scans and nominal estimates) until Reindex
	// re-derives them; each set carries the catalog version at which it
	// last changed as its epoch.
	idx *index.Set
	st  *stats.Set
}

func (s *Snapshot) view() *Snapshot { return s }

// Version is the monotonic catalog version this snapshot was published
// under. It subsumes the index and stats epochs: every mutation — load,
// update, drop, reindex, stats refresh — publishes a new version, so a
// cache keyed on it can never serve state from a different document set.
func (s *Snapshot) Version() uint64 { return s.version }

// Documents lists the snapshot's document names, sorted.
func (s *Snapshot) Documents() []string {
	names := make([]string, 0, len(s.enc))
	for name := range s.enc {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Document returns the named document in this snapshot.
func (s *Snapshot) Document(name string) (*Document, bool) {
	if rel, ok := s.enc[name]; ok {
		return &Document{enc: rel}, true
	}
	return nil, false
}

// forests decodes every document for the oracle engines, which evaluate
// over trees.
func (s *Snapshot) forests() map[string]xmltree.Forest {
	out := make(map[string]xmltree.Forest, len(s.enc))
	for name, rel := range s.enc {
		out[name] = interval.MustDecode(rel)
	}
	return out
}

// clone returns a copy-on-write successor of s: a fresh map, shared
// relations and sets, version advanced by one. Writers mutate the clone
// and publish it; the original is never touched.
func (s *Snapshot) clone() *Snapshot {
	enc := make(core.Catalog, len(s.enc)+1)
	for k, v := range s.enc {
		enc[k] = v
	}
	return &Snapshot{version: s.version + 1, enc: enc, idx: s.idx, st: s.st}
}

// withIndex returns a new index set for the clone: the old entries with
// name set to di (or removed when di is nil), under the clone's version
// as its epoch. Old sets stay untouched — memoized plans may still hold
// them, and the executor's pointer-identity gates keep those correct.
func (s *Snapshot) withIndex(name string, di *index.DocIndex) {
	docs := make(map[string]*index.DocIndex, len(s.enc))
	if s.idx != nil {
		for k, v := range s.idx.Docs {
			docs[k] = v
		}
	}
	if di == nil {
		delete(docs, name)
	} else {
		docs[name] = di
	}
	s.idx = &index.Set{Docs: docs, Epoch: s.version}
}

// withStats is withIndex for the statistics set.
func (s *Snapshot) withStats(name string, ds *stats.DocStats) {
	docs := make(map[string]*stats.DocStats, len(s.enc))
	if s.st != nil {
		for k, v := range s.st.Docs {
			docs[k] = v
		}
	}
	if ds == nil {
		delete(docs, name)
	} else {
		docs[name] = ds
	}
	s.st = &stats.Set{Docs: docs, Epoch: s.version}
}

// Catalog supplies the documents a query's document(...) calls reference.
// It is a concurrent, versioned store: writers (Add, Update, Drop,
// Reindex, RefreshStats) serialize on an internal lock, derive a new
// immutable Snapshot copy-on-write, and publish it atomically; readers
// load the current snapshot with a single atomic pointer read and never
// block on writers. A *Catalog passed to Query methods pins the current
// snapshot for that one call; pin a snapshot explicitly (Snapshot) to
// run several calls against one consistent version.
type Catalog struct {
	mu   sync.Mutex
	snap atomic.Pointer[Snapshot]
}

// NewCatalog returns an empty catalog at version 0.
func NewCatalog() *Catalog {
	c := &Catalog{}
	c.snap.Store(&Snapshot{enc: core.Catalog{}})
	return c
}

// Snapshot returns the current published snapshot. The returned value is
// immutable and remains fully usable after any number of later writes.
func (c *Catalog) Snapshot() *Snapshot { return c.snap.Load() }

func (c *Catalog) view() *Snapshot { return c.Snapshot() }

// Version returns the version of the current snapshot.
func (c *Catalog) Version() uint64 { return c.Snapshot().version }

// publish makes n the current snapshot. Callers hold c.mu.
func (c *Catalog) publish(n *Snapshot) {
	c.snap.Store(n)
	obs.CatalogVersion.Set(int64(n.version))
	obs.CatalogDocs.Set(int64(len(n.enc)))
}

// Add registers a document under a name, replacing a previous entry, and
// returns the new catalog version. The catalog keeps the document's
// relation only. It is indexed and statistics-profiled as it is added (or
// arrives pre-indexed from a .dixq store), so DI plans can serve path
// chains as index seeks, prune provably empty paths at plan time, and
// feed the cost-based optimizer real cardinalities.
func (c *Catalog) Add(name string, d *Document) uint64 {
	rel := d.enc
	di := d.idx
	if di == nil {
		di = index.Build(rel)
	}
	ds := d.st
	if ds == nil {
		ds = stats.Collect(rel)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.Snapshot().clone()
	n.enc[name] = rel
	n.withIndex(name, di)
	n.withStats(name, ds)
	c.publish(n)
	return n.version
}

// Drop removes a document from the catalog. It reports the new version
// and whether the document existed (the version is unchanged otherwise).
func (c *Catalog) Drop(name string) (uint64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cur := c.Snapshot()
	if _, ok := cur.enc[name]; !ok {
		return cur.version, false
	}
	n := cur.clone()
	delete(n.enc, name)
	n.withIndex(name, nil)
	n.withStats(name, nil)
	c.publish(n)
	return n.version, true
}

// UpdateOp names a structural update applied by Catalog.Update.
type UpdateOp string

const (
	// OpDelete removes the addressed subtree.
	OpDelete UpdateOp = "delete"
	// OpInsertAfter / OpInsertBefore insert the fragment as the following
	// / preceding siblings of the addressed node.
	OpInsertAfter  UpdateOp = "insert-after"
	OpInsertBefore UpdateOp = "insert-before"
	// OpAppendChild / OpPrependChild insert the fragment as the last /
	// first children of the addressed node.
	OpAppendChild  UpdateOp = "append-child"
	OpPrependChild UpdateOp = "prepend-child"
)

// Update applies a structural update to a document and publishes the
// result as a new snapshot version. The target node is addressed by
// child ordinals: path[0] selects among the document's top-level trees,
// each further ordinal among the children of the node selected so far
// (so [0] is the root element and [0, 2] its third child). Fragment
// supplies the inserted forest for the insert ops and must be nil for
// OpDelete.
//
// The mutation is the paper's locality argument made concrete: inserted
// subtrees receive digit-vector keys extending the predecessor's key, so
// nothing else in the relation is relabeled and the cost is
// O(subtree + log n). The new version publishes without the document's
// structural index and statistics — plans over it fall back to scans and
// nominal estimates, which stay digit-identical — until Reindex
// re-derives them.
func (c *Catalog) Update(name string, op UpdateOp, path []int, fragment *Document) (uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cur := c.Snapshot()
	rel, ok := cur.enc[name]
	if !ok {
		return cur.version, fmt.Errorf("%w: %q", ErrNoDocument, name)
	}
	target, err := update.ResolvePath(rel, path)
	if err != nil {
		return cur.version, err
	}
	if op == OpDelete {
		if fragment != nil {
			return cur.version, fmt.Errorf("dixq: %s takes no fragment", op)
		}
	} else if fragment == nil {
		return cur.version, fmt.Errorf("dixq: %s requires a fragment", op)
	}
	var next *interval.Relation
	switch op {
	case OpDelete:
		next, err = update.DeleteSubtree(rel, target)
	case OpInsertAfter:
		next, err = update.InsertAfter(rel, target, fragment.tree())
	case OpInsertBefore:
		next, err = update.InsertBefore(rel, target, fragment.tree())
	case OpAppendChild:
		next, err = update.AppendChild(rel, target, fragment.tree())
	case OpPrependChild:
		next, err = update.PrependChild(rel, target, fragment.tree())
	default:
		err = fmt.Errorf("dixq: unknown update op %q", op)
	}
	if err != nil {
		return cur.version, err
	}
	n := cur.clone()
	n.enc[name] = next
	n.withIndex(name, nil)
	n.withStats(name, nil)
	c.publish(n)
	return n.version, nil
}

// Reindex rebuilds the structural index and statistics of a document
// from its current relation and publishes them under a new version. It
// reports the resulting version and whether anything was rebuilt: a
// document that is absent, or whose index is already current, is left
// alone. Updates leave a document unindexed until this runs (the
// server's background reindexer calls it after every update), trading a
// window of scan-backed plans for O(subtree) update latency.
func (c *Catalog) Reindex(name string) (uint64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cur := c.Snapshot()
	rel, ok := cur.enc[name]
	if !ok {
		return cur.version, false
	}
	if cur.idx != nil && cur.idx.Docs[name] != nil {
		// Index entries are only ever derived from the then-current
		// relation, and every Update removes the entry — so a present
		// entry is already current.
		return cur.version, false
	}
	di := index.Build(rel)
	ds := stats.Collect(rel)
	n := cur.clone()
	n.withIndex(name, di)
	n.withStats(name, ds)
	c.publish(n)
	return n.version, true
}

// RefreshStats recollects every document's statistics from its current
// interval encoding and publishes them under a new version (and so a new
// stats epoch), leaving the structural indexes and the index epoch
// untouched. Plans cached against the old statistics are thereby
// invalidated without forcing an index rebuild.
func (c *Catalog) RefreshStats() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.Snapshot().clone()
	docs := make(map[string]*stats.DocStats, len(n.enc))
	for name, rel := range n.enc {
		docs[name] = stats.Collect(rel)
	}
	n.st = &stats.Set{Docs: docs, Epoch: n.version}
	c.publish(n)
	return n.version
}

// IndexEpoch identifies the current generation of the catalog's
// structural indexes: the catalog version at which an index last changed
// (a document added, replaced, updated, dropped or reindexed). It is
// subsumed by Version, which plan caches should prefer.
func (c *Catalog) IndexEpoch() uint64 {
	if s := c.Snapshot(); s.idx != nil {
		return s.idx.Epoch
	}
	return 0
}

// StatsEpoch identifies the current generation of the catalog's
// per-document statistics: the catalog version at which they last
// changed. It advances independently of IndexEpoch (RefreshStats touches
// only it) and is likewise subsumed by Version.
func (c *Catalog) StatsEpoch() uint64 {
	if s := c.Snapshot(); s.st != nil {
		return s.st.Epoch
	}
	return 0
}

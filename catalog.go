package dixq

import (
	"errors"
	"fmt"
	"maps"
	"sort"
	"sync"
	"sync/atomic"

	"dixq/internal/core"
	"dixq/internal/index"
	"dixq/internal/interval"
	"dixq/internal/obs"
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
// and the structural-index set derived from them, whose dataguide classes
// carry the statistics the estimator reads.
// Snapshots are copy-on-write — writers never mutate one in place — so a
// pinned snapshot answers queries identically no matter how many
// versions have been published since, and reading never blocks writing.
type Snapshot struct {
	version uint64
	enc     core.Catalog
	// idx holds every document's structural index, derived from exactly
	// the relation in enc (built by Add, spliced by Update). The set
	// carries the catalog version at which it last changed as its epoch.
	idx *index.Set
}

func (s *Snapshot) view() *Snapshot { return s }

// Version is the monotonic catalog version this snapshot was published
// under: every mutation — load, update, drop, reindex — publishes a new
// version, so a cache keyed on it can never serve state from a different
// document set.
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

// forests decodes the named documents for the oracle engines, which
// evaluate over trees; names the snapshot lacks are left out, so the
// engine reports them as unknown.
func (s *Snapshot) forests(names []string) map[string]xmltree.Forest {
	out := make(map[string]xmltree.Forest, len(names))
	for _, name := range names {
		if rel, ok := s.enc[name]; ok {
			out[name] = interval.MustDecode(rel)
		}
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
	return &Snapshot{version: s.version + 1, enc: enc, idx: s.idx}
}

// withIndex gives the clone a new index set: the old entries with name
// set to di (or removed when di is nil), under the clone's version as its
// epoch. The old set stays untouched — memoized plans may still hold it,
// and the executor's pointer-identity gates keep those correct.
func (s *Snapshot) withIndex(name string, di *index.DocIndex) {
	docs := make(map[string]*index.DocIndex, len(s.enc))
	if s.idx != nil {
		maps.Copy(docs, s.idx.Docs)
	}
	docs[name] = di
	if di == nil {
		delete(docs, name)
	}
	s.idx = &index.Set{Docs: docs, Epoch: s.version}
}

// Catalog supplies the documents a query's document(...) calls reference.
// It is a concurrent, versioned store: writers (Add, Update, Drop,
// Reindex) serialize on an internal lock, derive a new
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
// relation only. It is indexed as it is added, and its statistics are
// read off the index's annotated dataguide, so DI plans can serve path
// chains as index seeks, prune provably empty paths at plan time, and
// feed the estimator real cardinalities.
func (c *Catalog) Add(name string, d *Document) uint64 {
	di := index.Build(d.enc)
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.Snapshot().clone()
	n.enc[name] = d.enc
	n.withIndex(name, di)
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
// nothing else in the relation is relabeled. The update is one row-range
// replacement (interval.Edit), and the document's structural index —
// its dataguide annotations, and so its statistics, included — is
// spliced from the previous one by it (index.Splice) rather than rebuilt,
// so the new version publishes relation, index and statistics together:
// a read after a write seeks exactly as before it. The cost is O(n) — the
// copy of the tuple slice and an int32 shift of the subtree ends, class
// rows and postings — with no key comparisons outside the inserted rows.
func (c *Catalog) Update(name string, op UpdateOp, path []int, fragment *Document) (uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cur := c.Snapshot()
	rel, ok := cur.enc[name]
	if !ok {
		return cur.version, fmt.Errorf("%w: %q", ErrNoDocument, name)
	}
	// Add indexes every document, and Update and Reindex keep it so.
	ix := cur.idx.Docs[name]
	row, err := update.ResolvePath(ix.End, path)
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
	var e interval.Edit
	switch op {
	case OpDelete:
		next, e, err = update.DeleteSubtree(rel, ix.End, row)
	case OpInsertAfter:
		next, e, err = update.InsertAfter(rel, ix.End, row, fragment.tree())
	case OpInsertBefore:
		next, e, err = update.InsertBefore(rel, ix.End, row, fragment.tree())
	case OpAppendChild:
		next, e, err = update.AppendChild(rel, ix.End, row, fragment.tree())
	case OpPrependChild:
		next, e, err = update.PrependChild(rel, ix.End, row, fragment.tree())
	default:
		err = fmt.Errorf("dixq: unknown update op %q", op)
	}
	if err != nil {
		return cur.version, err
	}
	n := cur.clone()
	n.enc[name] = next
	n.withIndex(name, index.Splice(ix, next, e))
	c.publish(n)
	return n.version, nil
}

// Reindex rebuilds the structural index and statistics of a document
// whose index entry is missing, and publishes them under a new version.
// It reports the resulting version and whether anything was rebuilt.
// Add indexes every document and Update splices the index into the
// version it publishes, so no published snapshot lacks an entry
// and Reindex leaves every document alone; it remains the entry point
// that restores the invariant should an entry ever be missing.
func (c *Catalog) Reindex(name string) (uint64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cur := c.Snapshot()
	rel, ok := cur.enc[name]
	if !ok || cur.idx.Docs[name] != nil {
		return cur.version, false
	}
	n := cur.clone()
	n.withIndex(name, index.Build(rel))
	c.publish(n)
	return n.version, true
}

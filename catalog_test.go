package dixq

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"dixq/internal/index"
	"dixq/internal/update"
)

// TestSnapshotIsolation: a pinned snapshot answers identically no matter
// how many writes publish after it — the MVCC contract of the catalog.
func TestSnapshotIsolation(t *testing.T) {
	cat := NewCatalog()
	doc, err := ParseDocument(`<r><a>1</a><b>2</b></r>`)
	if err != nil {
		t.Fatal(err)
	}
	v1 := cat.Add("doc.xml", doc)
	pinned := cat.Snapshot()
	if pinned.Version() != v1 {
		t.Fatalf("pinned version %d, want %d", pinned.Version(), v1)
	}

	frag, err := ParseDocument(`<c>3</c>`)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := cat.Update("doc.xml", OpAppendChild, []int{0}, frag)
	if err != nil {
		t.Fatal(err)
	}
	if v2 <= v1 {
		t.Fatalf("update version %d, want > %d", v2, v1)
	}

	q, err := ParseQuery(`document("doc.xml")/r/c`)
	if err != nil {
		t.Fatal(err)
	}
	// The pinned snapshot predates the insert; the live catalog sees it.
	old, err := q.Run(context.Background(), pinned, nil)
	if err != nil {
		t.Fatal(err)
	}
	if old.XML() != "" {
		t.Errorf("pinned snapshot sees the later insert: %q", old.XML())
	}
	live, err := q.Run(context.Background(), cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	if live.XML() != `<c>3</c>` {
		t.Errorf("live catalog result = %q", live.XML())
	}

	// Dropping the document does not disturb either pinned version.
	if _, ok := cat.Drop("doc.xml"); !ok {
		t.Fatal("drop failed")
	}
	if _, err := q.Run(context.Background(), cat, nil); err == nil {
		t.Error("query against the dropped document succeeded")
	}
	again, err := q.Run(context.Background(), pinned, nil)
	if err != nil {
		t.Fatal(err)
	}
	if again.XML() != old.XML() {
		t.Errorf("pinned snapshot changed after drop: %q vs %q", again.XML(), old.XML())
	}
}

// TestCatalogUpdateOps drives each structural op through the catalog and
// checks the serialized document after every publish.
func TestCatalogUpdateOps(t *testing.T) {
	parse := func(s string) *Document {
		t.Helper()
		d, err := ParseDocument(s)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	cat := NewCatalog()
	cat.Add("d", parse(`<r><a/><b/></r>`))
	xml := func() string {
		d, ok := cat.Snapshot().Document("d")
		if !ok {
			t.Fatal("document vanished")
		}
		return d.XML()
	}
	steps := []struct {
		op   UpdateOp
		path []int
		frag string
		want string
	}{
		{OpAppendChild, []int{0}, `<c/>`, `<r><a/><b/><c/></r>`},
		{OpPrependChild, []int{0}, `<z/>`, `<r><z/><a/><b/><c/></r>`},
		{OpInsertAfter, []int{0, 1}, `<a2/>`, `<r><z/><a/><a2/><b/><c/></r>`},
		{OpInsertBefore, []int{0, 0}, `<y/>`, `<r><y/><z/><a/><a2/><b/><c/></r>`},
		{OpDelete, []int{0, 2}, ``, `<r><y/><z/><a2/><b/><c/></r>`},
	}
	prev := cat.Version()
	for _, st := range steps {
		var frag *Document
		if st.frag != "" {
			frag = parse(st.frag)
		}
		v, err := cat.Update("d", st.op, st.path, frag)
		if err != nil {
			t.Fatalf("%s %v: %v", st.op, st.path, err)
		}
		if v <= prev {
			t.Fatalf("%s: version %d did not advance past %d", st.op, v, prev)
		}
		prev = v
		if got := xml(); got != st.want {
			t.Fatalf("%s %v: document = %s, want %s", st.op, st.path, got, st.want)
		}
	}
}

// TestCatalogUpdateErrors: missing documents, missing nodes, and
// fragment/op mismatches are reported without publishing anything.
func TestCatalogUpdateErrors(t *testing.T) {
	cat := NewCatalog()
	doc, _ := ParseDocument(`<r><a/></r>`)
	frag, _ := ParseDocument(`<x/>`)
	cat.Add("d", doc)
	before := cat.Version()

	if _, err := cat.Update("nope", OpDelete, []int{0}, nil); !errors.Is(err, ErrNoDocument) {
		t.Errorf("missing document error = %v", err)
	}
	if _, err := cat.Update("d", OpDelete, []int{0, 7}, nil); !errors.Is(err, ErrNoNode) {
		t.Errorf("missing node error = %v", err)
	}
	if _, err := cat.Update("d", OpDelete, nil, nil); err == nil {
		t.Error("empty path succeeded")
	}
	if _, err := cat.Update("d", OpDelete, []int{0}, frag); err == nil {
		t.Error("delete with a fragment succeeded")
	}
	if _, err := cat.Update("d", OpAppendChild, []int{0}, nil); err == nil {
		t.Error("insert without a fragment succeeded")
	}
	if _, err := cat.Update("d", UpdateOp("explode"), []int{0}, frag); err == nil {
		t.Error("unknown op succeeded")
	}
	if cat.Version() != before {
		t.Errorf("failed updates advanced the version %d -> %d", before, cat.Version())
	}
}

// TestCatalogUpdatePublishesIndex: Update publishes the document's
// spliced index and statistics in the same version as its relation —
// entries present, epochs equal to the new version, contents equal to a
// rebuild — so Reindex finds nothing to do and publishes nothing.
func TestCatalogUpdatePublishesIndex(t *testing.T) {
	cat := NewCatalog()
	doc, _ := ParseDocument(`<r><a>1</a></r>`)
	frag, _ := ParseDocument(`<a>2</a>`)
	cat.Add("d", doc)
	v, err := cat.Update("d", OpAppendChild, []int{0}, frag)
	if err != nil {
		t.Fatal(err)
	}
	snap := cat.Snapshot()
	ix := snap.idx.Docs["d"]
	if ix == nil {
		t.Fatal("Update published the document without its index")
	}
	if snap.idx.Epoch != v {
		t.Errorf("index epoch %d, want the update's version %d", snap.idx.Epoch, v)
	}
	rel := snap.enc["d"]
	if ix.Rel != rel {
		t.Fatal("spliced index describes another relation")
	}
	if want := index.Build(rel); !slices.Equal(ix.End, want.End) || !slices.Equal(ix.Paths(), want.Paths()) {
		t.Errorf("spliced index differs from a rebuild: End %v, want %v", ix.End, want.End)
	}
	if got, want := classAnnotations(ix), classAnnotations(index.Build(rel)); !reflect.DeepEqual(got, want) {
		t.Errorf("spliced statistics %+v, want %+v", got, want)
	}
	q, err := ParseQuery(`document("d")/r/a`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Run(context.Background(), cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.XML(); got != `<a>1</a><a>2</a>` {
		t.Fatalf("result after update = %q", got)
	}

	if got, rebuilt := cat.Reindex("d"); rebuilt || got != v || cat.Version() != v {
		t.Errorf("Reindex after Update = (%d, %t), version %d; want (%d, false) and no new version", got, rebuilt, cat.Version(), v)
	}
	if _, rebuilt := cat.Reindex("ghost"); rebuilt {
		t.Error("reindexing a missing document republished")
	}
}

// TestFrontInsertSaveRoundTrip is the regression test for the update
// persistence gap: repeated front-of-document inserts step the leading
// key digit below zero, which the store refuses to write. SaveEncoded
// must detect this and rebuild the encoding, so any grown document
// round-trips through a .dixq store.
func TestFrontInsertSaveRoundTrip(t *testing.T) {
	cat := NewCatalog()
	doc, _ := ParseDocument(`<r><mid/></r>`)
	cat.Add("d", doc)
	// Each insert-before at [0] targets the current first root, stepping
	// the leading digit further below zero.
	for i, frag := range []string{`<front1/>`, `<front2/>`} {
		f, _ := ParseDocument(frag)
		if _, err := cat.Update("d", OpInsertBefore, []int{0}, f); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	grown, _ := cat.Snapshot().Document("d")
	if got := grown.XML(); got != `<front2/><front1/><r><mid/></r>` {
		t.Fatalf("grown document = %s", got)
	}
	if !update.NeedsRebuild(grown.enc) {
		t.Fatal("front inserts produced no negative digit; the regression scenario is gone")
	}

	path := t.TempDir() + "/grown.dixq"
	if err := grown.SaveEncoded(path); err != nil {
		t.Fatalf("SaveEncoded of a front-grown document: %v", err)
	}
	loaded, err := LoadDocumentFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !grown.Equal(loaded) {
		t.Errorf("round-trip changed the document:\n  saved  %s\n  loaded %s", grown.XML(), loaded.XML())
	}
	if update.NeedsRebuild(loaded.enc) {
		t.Error("loaded store still carries negative digits")
	}
	// The rebuilt store arrives with index and stats riding along, and
	// queries agree before and after the round trip.
	cat2 := NewCatalog()
	cat2.Add("d", loaded)
	q, err := ParseQuery(`document("d")/front2`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Run(context.Background(), cat2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.XML() != `<front2/>` {
		t.Errorf("query over the reloaded store = %q", res.XML())
	}
}

// TestSaveEncodedPreservesGrownKeys: non-negative multi-digit keys from
// ordinary inserts are storable and must be saved as-is (no rebuild), so
// saving does not perturb concurrent snapshots' key space.
func TestSaveEncodedPreservesGrownKeys(t *testing.T) {
	cat := NewCatalog()
	doc, _ := ParseDocument(`<r><a/><b/></r>`)
	frag, _ := ParseDocument(`<m/>`)
	cat.Add("d", doc)
	if _, err := cat.Update("d", OpInsertAfter, []int{0, 0}, frag); err != nil {
		t.Fatal(err)
	}
	grown, _ := cat.Snapshot().Document("d")
	if update.NeedsRebuild(grown.enc) {
		t.Fatal("a middle insert should not need a rebuild")
	}
	path := t.TempDir() + "/grown.dixq"
	if err := grown.SaveEncoded(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDocumentFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !grown.Equal(loaded) {
		t.Error("round-trip changed the document")
	}
	if got, want := loaded.Encoding(), grown.Encoding(); got != want {
		t.Errorf("stored encoding rewrote the keys:\n%s\nwant:\n%s", got, want)
	}
	if !strings.Contains(grown.Encoding(), ".") {
		t.Error("expected a multi-digit dynamic key in the grown encoding")
	}
}

// liveHeap is the heap two forced collections leave, read the way the
// repository benchmark reads retained_heap_mb.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestCatalogHeapPerXMLByte bounds what a catalog keeps per byte of XML
// it was given: the relation, the structural index and the statistics,
// and no tree. The document goes in the way PUT /docs puts it
// (ParseDocument, then Add); then the document list is read the way GET
// /docs reads it (Depth and Trees from the snapshot) and an interpreter
// query decodes a tree, neither of which may leave anything behind.
// Not parallel: it measures the process heap.
func TestCatalogHeapPerXMLByte(t *testing.T) {
	xml := GenerateXMark(0.02, 1).XML()
	base := liveHeap()
	cat := NewCatalog()
	doc, err := ParseDocument(xml)
	if err != nil {
		t.Fatal(err)
	}
	cat.Add("auction.xml", doc)
	doc = nil
	for _, name := range cat.Snapshot().Documents() {
		d, _ := cat.Snapshot().Document(name)
		if d.Depth() == 0 || d.Trees() != 1 {
			t.Fatalf("%s: depth %d, %d trees", name, d.Depth(), d.Trees())
		}
	}
	if _, err := Run(`count(document("auction.xml")/site/people/person)`, cat, &Options{Engine: Interpreter}); err != nil {
		t.Fatal(err)
	}
	perByte := float64(liveHeap()-base) / float64(len(xml))
	runtime.KeepAlive(cat)
	t.Logf("catalog live heap: %.2f bytes per XML byte (%d XML bytes)", perByte, len(xml))
	if perByte > 8.5 {
		t.Errorf("catalog keeps %.2f bytes per XML byte, want <= 8.5", perByte)
	}
}

// classAnnotations renders every dataguide class of ix with its
// annotations — instance count, subtree rows, distinct text values —
// keyed by its class path: the statistics the estimator reads.
func classAnnotations(ix *index.DocIndex) map[string][3]int64 {
	out := map[string][3]int64{}
	var walk func([]*index.Class)
	walk = func(classes []*index.Class) {
		for _, c := range classes {
			out[c.Path()] = [3]int64{c.Count(), c.SubtreeRows(), c.DistinctText()}
			walk(c.Children())
		}
	}
	walk(ix.TopClasses())
	return out
}

package index_test

import (
	"runtime"
	"testing"

	"dixq/internal/index"
	"dixq/internal/interval"
)

// chain returns the relation of n nested <a> elements, built directly:
// element i spans keys i and 2n-1-i.
func chain(n int) *interval.Relation {
	rel := &interval.Relation{Tuples: make([]interval.Tuple, n)}
	for i := range rel.Tuples {
		rel.Tuples[i] = interval.Tuple{S: "<a>", L: interval.Key{int64(i)}, R: interval.Key{int64(2*n - 1 - i)}}
	}
	return rel
}

// liveIndexBytes is the heap an index of rel holds after a collection.
func liveIndexBytes(rel *interval.Relation) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ix := index.Build(rel)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(ix)
	return after.HeapAlloc - before.HeapAlloc
}

// TestBuildMemoryLinearInDepth: a chain of nested elements has one class
// per level, so an index whose classes held their rendered paths would
// hold O(depth²) bytes. The heap per node at depth 100,000 stays within
// 1.25× of that at 10,000, and the whole index within 64 MB.
func TestBuildMemoryLinearInDepth(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 100,000-deep index")
	}
	const shallow, deep = 10_000, 100_000
	small, large := liveIndexBytes(chain(shallow)), liveIndexBytes(chain(deep))
	perSmall, perLarge := float64(small)/shallow, float64(large)/deep
	t.Logf("depth %d: %.1f MB, %.0f B/node; depth %d: %.1f MB, %.0f B/node",
		shallow, float64(small)/1e6, perSmall, deep, float64(large)/1e6, perLarge)
	if perLarge > 1.25*perSmall {
		t.Errorf("index of depth %d holds %.0f B per node, over 1.25× the %.0f at depth %d", deep, perLarge, perSmall, shallow)
	}
	if large > 64<<20 {
		t.Errorf("index of depth %d holds %.1f MB, want ≤ 64 MB", deep, float64(large)/(1<<20))
	}
	levels := 0
	for c := index.Build(chain(deep)).TopClasses()[0]; c != nil; c = c.Child("<a>") {
		levels++
	}
	if levels != deep {
		t.Fatalf("%d nested classes, want %d", levels, deep)
	}
}

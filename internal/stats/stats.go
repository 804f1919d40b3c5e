// Package stats presents per-document statistics to the plan estimator
// (internal/opt): relation cardinality, per-label instance counts, and
// per-dataguide-path summaries (instance count, subtree rows, distinct
// text values under the path). They are not collected by a pass of their
// own: the structural index annotates its dataguide classes with them as
// it is built and spliced (index.PathStats), and Of reads them off the
// trie in O(classes + labels). The store persists none of them; a loaded
// document is indexed, and so profiled, again.
//
// Paths use the dataguide vocabulary of internal/index: "/"-joined class
// labels from the root, with all text collapsed into a "#text" segment —
// the query algebra selects text by kind, never by content, so one class
// per parent path suffices. DistinctText is exact.
package stats

import (
	"sort"

	"dixq/internal/index"
	"dixq/internal/interval"
	"dixq/internal/xmltree"
)

// textSegment is the rendered path segment of the collapsed text class,
// matching index.DocIndex.Paths.
const textSegment = "#text"

// PathStats summarizes one dataguide path (one class of the strong
// dataguide); see index.PathStats.
type PathStats = index.PathStats

// DocStats is the statistics of a single document relation.
type DocStats struct {
	// Tuples is the relation cardinality.
	Tuples int64
	// Labels maps each element/attribute label to its instance count —
	// the posting length of the structural index.
	Labels map[string]int64
	// Paths maps each distinct root-to-node class path (rendered as in
	// index.DocIndex.Paths: "/"-joined, text as "#text") to its summary.
	Paths map[string]PathStats
}

// Of reads the statistics of a document off its structural index.
func Of(ix *index.DocIndex) *DocStats {
	return &DocStats{Tuples: int64(len(ix.End)), Labels: ix.LabelCounts(), Paths: ix.Annotations()}
}

// Collect computes the statistics of a relation: Of over a freshly built
// index.
func Collect(rel *interval.Relation) *DocStats { return Of(index.Build(rel)) }

// LabelCount returns the instance count of an element/attribute label,
// or 0 when the label does not occur. Text-shaped labels return the
// total text-row count: text is never selected by content.
func (s *DocStats) LabelCount(label string) int64 {
	if s == nil {
		return 0
	}
	if xmltree.LabelKind(label) == xmltree.Text {
		var n int64
		for p, ps := range s.Paths {
			if isTextPath(p) {
				n += ps.Count
			}
		}
		return n
	}
	return s.Labels[label]
}

func isTextPath(p string) bool {
	return len(p) >= len(textSegment)+1 && p[len(p)-len(textSegment)-1:] == "/"+textSegment
}

// PathNames returns the stats paths in lexicographic order, for
// deterministic iteration and rendering.
func (s *DocStats) PathNames() []string {
	out := make([]string, 0, len(s.Paths))
	for p := range s.Paths {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Set is the statistics of a catalog of documents. Epoch is the catalog
// version at which the set was published; a set is immutable, so caches
// key on its pointer.
type Set struct {
	Docs  map[string]*DocStats
	Epoch uint64
}

// Doc returns the statistics of a named document, or nil.
func (s *Set) Doc(name string) *DocStats {
	if s == nil {
		return nil
	}
	return s.Docs[name]
}

// CollectSet computes statistics for every document of a catalog.
func CollectSet(cat map[string]*interval.Relation) *Set {
	s := &Set{Docs: make(map[string]*DocStats, len(cat))}
	for name, rel := range cat {
		s.Docs[name] = Collect(rel)
	}
	return s
}

// Package stats collects and persists per-document statistics for the
// cost-based optimizer (internal/opt): relation cardinality, per-label
// instance counts, and per-dataguide-path summaries (instance count,
// subtree rows, distinct text values under the path). Everything is
// derived from one O(n) stack pass over the L-sorted relation — the same
// pass shape index.Build uses — so collection piggybacks on encode/load
// and never touches the document twice.
//
// Statistics persist beside the relation and index in the DIXQS3 store
// section (see internal/store) and publish through the catalog under a
// monotonic stats epoch: plan caches fold the epoch into their keys so a
// stats refresh invalidates cached plans even when the index is unchanged.
//
// Paths use the dataguide vocabulary of internal/index: "/"-joined class
// labels from the root, with all text collapsed into a "#text" segment —
// the query algebra selects text by kind, never by content, so one class
// per parent path suffices. DistinctText is exact (a per-class string
// set during collection), which is affordable because text values are
// already materialized as tuple labels.
package stats

import (
	"sort"

	"dixq/internal/interval"
	"dixq/internal/xmltree"
)

// textSegment is the rendered path segment of the collapsed text class,
// matching index.DocIndex.Paths.
const textSegment = "#text"

// PathStats summarizes one dataguide path (one class of the strong
// dataguide).
type PathStats struct {
	// Count is the number of instances of the path (rows whose
	// root-to-node class path equals it).
	Count int64
	// SubtreeRows is the total relation rows covered by the subtrees of
	// all instances, instances included. For a text path this equals
	// Count. SubtreeRows/Count is the mean fan-out of the path and the
	// cost of materializing one instance forest.
	SubtreeRows int64
	// DistinctText is the number of distinct text values among the
	// instances of a text path ("#text" leaf), and 0 for element and
	// attribute paths. 1/DistinctText is the equality selectivity of a
	// value join whose side resolves to this path.
	DistinctText int64
}

// DocStats is the statistics of a single document relation.
type DocStats struct {
	// Tuples is the relation cardinality.
	Tuples int64
	// Labels maps each element/attribute label to its instance count —
	// the posting length of the structural index, persisted so the
	// optimizer can estimate without an index in memory.
	Labels map[string]int64
	// Paths maps each distinct root-to-node class path (rendered as in
	// index.DocIndex.Paths: "/"-joined, text as "#text") to its summary.
	Paths map[string]PathStats
}

// Collect computes the statistics of a relation in one stack pass over
// the L-sorted tuples. Paths are interned as they are met: each distinct
// path is an id keyed by its parent's id and its last segment, and its
// string is rendered once, at the end, however many rows it has.
func Collect(rel *interval.Relation) *DocStats {
	s := &DocStats{
		Tuples: int64(len(rel.Tuples)),
		Labels: map[string]int64{},
	}
	type step struct {
		parent  int32
		segment string
	}
	type path struct {
		step
		PathStats
		distinct map[string]struct{} // text values, for a text path
	}
	ids := map[step]int32{}
	var paths []path
	type frame struct {
		row  int
		path int32
	}
	var stack []frame
	pop := func(end int) {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		paths[f.path].Count++
		paths[f.path].SubtreeRows += int64(end - f.row)
	}
	for i, t := range rel.Tuples {
		for len(stack) > 0 && interval.Compare(rel.Tuples[stack[len(stack)-1].row].R, t.L) < 0 {
			pop(i)
		}
		key := step{parent: -1, segment: t.S}
		if len(stack) > 0 {
			key.parent = stack[len(stack)-1].path
		}
		text := xmltree.LabelKind(t.S) == xmltree.Text
		if text {
			key.segment = textSegment
		} else {
			s.Labels[t.S]++
		}
		id, ok := ids[key]
		if !ok {
			id = int32(len(paths))
			ids[key] = id
			paths = append(paths, path{step: key, distinct: map[string]struct{}{}})
		}
		if text {
			paths[id].distinct[t.S] = struct{}{}
		}
		stack = append(stack, frame{i, id})
	}
	for len(stack) > 0 {
		pop(len(rel.Tuples))
	}
	// A parent path is interned before its children, so one forward pass
	// renders every string from its parent's; names[0] is the root's "".
	names := make([]string, len(paths)+1)
	s.Paths = make(map[string]PathStats, len(paths))
	for id, p := range paths {
		names[id+1] = names[p.parent+1] + "/" + p.segment
		p.DistinctText = int64(len(p.distinct))
		s.Paths[names[id+1]] = p.PathStats
	}
	return s
}

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

// Set is the statistics of a catalog of documents, tagged with a
// monotonic epoch that changes whenever any document's statistics are
// recollected. Plan caches key on the epoch so plans optimized against
// stale statistics never serve a query.
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

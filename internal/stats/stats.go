// Package stats collects and persists per-document statistics for the
// plan estimator (internal/opt): relation cardinality, per-label
// instance counts, and per-dataguide-path summaries (instance count,
// subtree rows, distinct text values under the path). Everything is
// derived from one O(n) stack pass over the L-sorted relation — the same
// pass shape index.Build uses — so collection piggybacks on encode/load
// and never touches the document twice. A structural update does not
// collect again: Splice patches the statistics for the edited rows.
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
	"maps"
	"sort"

	"dixq/internal/index"
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
	// estimator can read it without an index in memory.
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

// segment is the path segment of a tuple label: the label itself for an
// element or attribute, textSegment for text.
func segment(label string) string {
	if xmltree.LabelKind(label) == xmltree.Text {
		return textSegment
	}
	return label
}

// Splice derives the statistics of p.After.Rel from s, the statistics of
// p.Before.Rel, instead of recollecting them: Tuples and Labels change by
// the removed and inserted rows, the ancestor chain's paths by the row
// delta in SubtreeRows, and the paths of the removed and inserted rows in
// Count and SubtreeRows; a path left without instances is deleted.
// DistinctText of every text path the edit touched is recounted exactly,
// from the spliced index's class rows. The result equals Collect over the
// new relation; s is not modified.
func Splice(s *DocStats, p index.Patch) *DocStats {
	e := p.Edit
	out := &DocStats{
		Tuples: s.Tuples + int64(e.Delta()),
		Labels: maps.Clone(s.Labels),
		Paths:  maps.Clone(s.Paths),
	}
	before := p.Before.Rel.Tuples
	prefix := ""
	for _, a := range p.Ancestors {
		prefix += "/" + segment(before[a].S)
		ps := out.Paths[prefix]
		ps.SubtreeRows += int64(e.Delta())
		out.Paths[prefix] = ps
	}
	// The removed and inserted rows' paths, interned below the deepest
	// ancestor's (id 0), with their Count and SubtreeRows changes.
	type step struct {
		parent  int32
		segment string
	}
	ids := map[step]int32{}
	names := []string{prefix}
	var count, rows []int64
	walk := func(ix *index.DocIndex, lo, hi int, sign int64) {
		tuples := ix.Rel.Tuples
		var stack []int32 // rows of the open ancestors inside [lo, hi)
		var path []int32  // their path ids
		for i := lo; i < hi; i++ {
			for len(stack) > 0 && int(ix.End[stack[len(stack)-1]]) <= i {
				stack, path = stack[:len(stack)-1], path[:len(path)-1]
			}
			key := step{segment: segment(tuples[i].S)}
			if len(path) > 0 {
				key.parent = path[len(path)-1]
			}
			id, ok := ids[key]
			if !ok {
				id = int32(len(names))
				ids[key] = id
				names = append(names, names[key.parent]+"/"+key.segment)
				count, rows = append(count, 0), append(rows, 0)
			}
			count[id-1] += sign
			rows[id-1] += sign * int64(ix.End[i]-int32(i))
			if key.segment != textSegment {
				out.Labels[tuples[i].S] += sign
				if out.Labels[tuples[i].S] == 0 {
					delete(out.Labels, tuples[i].S)
				}
			}
			stack, path = append(stack, int32(i)), append(path, id)
		}
	}
	walk(p.Before, e.At, e.At+e.Removed, -1)
	walk(p.After, e.At, e.At+e.Inserted, +1)

	after := p.After.Rel.Tuples
	for id, name := range names[1:] {
		ps := out.Paths[name]
		ps.Count += count[id]
		ps.SubtreeRows += rows[id]
		if ps.Count == 0 {
			delete(out.Paths, name)
			continue
		}
		if isTextPath(name) {
			distinct := map[string]struct{}{}
			for _, r := range p.After.PathRows(name) {
				distinct[after[r].S] = struct{}{}
			}
			ps.DistinctText = int64(len(distinct))
		}
		out.Paths[name] = ps
	}
	return out
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
// recollected. Plan caches key on the epoch so plans estimated against
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

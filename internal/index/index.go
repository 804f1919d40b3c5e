// Package index builds the structural index of an interval-encoded
// document: a strong dataguide (path summary) plus per-label postings, the
// pairing ROADMAP open item 1 calls "the single biggest raw-speed lever at
// scale factors ≥ 1".
//
// A DocIndex holds three structures, all derived from one O(n) pass over the
// document relation whenever a document enters the catalog; the store
// persists the relation alone, and a loaded document is indexed again:
//
//   - End: for every row i, the exclusive end of the subtree rooted at i in
//     the L-sorted relation, so any subtree is the contiguous row range
//     [i, End[i]). This is what turns "return this forest" into a handful
//     of range reads instead of a filter over the whole relation.
//   - a dataguide trie: every distinct root-to-node label path in the
//     document is one trie node (a "class"), holding the sorted rows of all
//     its instances. Text nodes collapse into a single "" class per parent
//     path, because the query algebra never selects text by content — only
//     by kind (seltext). Each class is annotated with the summaries the
//     plan estimator reads (PathStats: instance count, subtree rows,
//     distinct text values) — an annotated strong dataguide, which package
//     stats reads off without another pass.
//   - postings: element/attribute label → sorted rows of all instances.
//     Used for absent-label pruning: a path step whose label appears
//     nowhere in the document can only produce the empty forest.
//
// Resolve runs a chain of path steps over the trie symbolically and returns
// the exact row ranges of the answer forest, which the evaluator serves
// without touching a single non-answer tuple. A descendant step (//x,
// subtrees-dfs followed by a select) resolves to one End range per
// x-labelled descendant-or-self instance, with the position digit
// subtrees-dfs would number it by. The soundness argument for these uses
// lives in DESIGN.md §4.11.
//
// A structural update does not rebuild the index: Splice patches all three
// structures, annotations included, for the rows the update replaced.
package index

import (
	"slices"
	"sort"
	"strings"

	"dixq/internal/interval"
	"dixq/internal/xmltree"
)

// class is one dataguide trie node: a distinct root-to-node label path,
// rendered as Paths renders it, with the rows (in ascending order) of
// every instance of that path and its annotations: subtreeRows, the sum
// of End[r]-r over the rows, and distinct, the number of distinct text
// values among the rows of a text class (0 for any other).
type class struct {
	label, path string
	rows        []int32
	children    []*class
	child       map[string]*class

	subtreeRows, distinct int64
}

// PathStats summarizes one dataguide class: the annotations of an
// annotated strong dataguide.
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

// DocIndex is the structural index of a single document relation.
type DocIndex struct {
	// Rel is the exact relation the index was built over. Consumers must
	// check pointer identity against their bound relation before serving
	// from the index: a filtered or re-encoded document is a different
	// relation and the index does not describe it.
	Rel *interval.Relation
	// End[i] is the exclusive end of the subtree rooted at row i.
	End []int32

	postings map[string][]int32
	root     *class // synthetic; children are the level-1 classes
}

// classLabel maps a tuple label to its dataguide class label. Elements and
// attributes classify by their full label; all text collapses into the ""
// class, matching the select/seltext semantics exactly: select filters by
// element/attribute label, seltext filters by kind alone.
func classLabel(s string) string {
	if xmltree.LabelKind(s) == xmltree.Text {
		return ""
	}
	return s
}

// Build constructs the index in one stack pass over the L-sorted relation,
// then annotates every class from its rows.
func Build(rel *interval.Relation) *DocIndex {
	n := len(rel.Tuples)
	ix := &DocIndex{
		Rel:      rel,
		End:      make([]int32, n),
		postings: map[string][]int32{},
		root:     &class{child: map[string]*class{}},
	}
	classify(rel, 0, n, ix.root, ix.End, func(parent *class, row int32) *class {
		label := rel.Tuples[row].S
		cl := classLabel(label)
		c := parent.child[cl]
		if c == nil {
			c = newClass(parent, cl)
			c.child = map[string]*class{}
			parent.child[cl] = c
			parent.children = append(parent.children, c)
		}
		c.rows = append(c.rows, row)
		if cl != "" {
			ix.postings[label] = append(ix.postings[label], row)
		}
		return c
	})
	ix.annotate(ix.root)
	return ix
}

// newClass returns an empty class with the given label below parent.
func newClass(parent *class, label string) *class {
	return &class{label: label, path: parent.path + "/" + segment(label)}
}

// annotate sets the annotations of c and every class below it from their
// rows and End.
func (ix *DocIndex) annotate(c *class) {
	for _, r := range c.rows {
		c.subtreeRows += int64(ix.End[r] - r)
	}
	if c.label == "" {
		c.distinct = distinctText(ix.Rel.Tuples, c.rows)
	}
	for _, ch := range c.children {
		ix.annotate(ch)
	}
}

// distinctText counts the distinct labels of rows, which for a text class
// are its text values.
func distinctText(tuples []interval.Tuple, rows []int32) int64 {
	seen := make(map[string]struct{}, len(rows))
	for _, r := range rows {
		seen[tuples[r].S] = struct{}{}
	}
	return int64(len(seen))
}

// classify is the stack pass shared by Build and Splice. Rows [lo, hi) of
// rel must be a forest whose top-level nodes are instances of top's child
// classes. It sets end[i] for every row of the range and calls visit with
// each row, in row order, and the class of its parent; visit returns the
// row's own class.
func classify(rel *interval.Relation, lo, hi int, top *class, end []int32, visit func(parent *class, row int32) *class) {
	type frame struct {
		row int32
		cls *class
	}
	var stack []frame
	for i := lo; i < hi; i++ {
		t := rel.Tuples[i]
		for len(stack) > 0 && interval.Compare(rel.Tuples[stack[len(stack)-1].row].R, t.L) < 0 {
			end[stack[len(stack)-1].row] = int32(i)
			stack = stack[:len(stack)-1]
		}
		parent := top
		if len(stack) > 0 {
			parent = stack[len(stack)-1].cls
		}
		stack = append(stack, frame{int32(i), visit(parent, int32(i))})
	}
	for _, f := range stack {
		end[f.row] = int32(hi)
	}
}

// Splice derives the index of next, the relation e made from ix.Rel, from
// ix instead of rebuilding it, in O(n) int32 work:
//
//   - the ancestor chain is found by descending from the roots with End
//     jumps; a node whose subtree ends exactly at the insertion point
//     contains the inserted rows only if their first key is below its R;
//   - ancestors' End and every row after the edit shift by e.Delta(); the
//     removed rows drop out of End, the class rows and the postings, and
//     a class left empty is dropped;
//   - the inserted rows run Build's stack pass, starting at the deepest
//     ancestor's class;
//   - every class the edit changes is annotated again: its subtree rows
//     lose the removed rows' subtrees, gain the inserted rows' and, for an
//     ancestor's class, the edit's delta; its distinct text values are
//     recounted only when it gained or lost rows.
//
// ix is not modified, and every class, row list and posting list the edit
// leaves unchanged is shared with it; the rest is allocated at its final
// length. New classes follow their existing siblings, so the trie's child
// order can differ from Build's; nothing reads it as document order.
func Splice(ix *DocIndex, next *interval.Relation, e interval.Edit) *DocIndex {
	old := ix.Rel.Tuples
	// Descend to the edit: at each level, walk the siblings until the one
	// whose subtree contains it. The ancestors lie at distinct depths, so
	// each has a class of its own.
	var anc []int32
	var ancClasses []*class
	top := ix.root
	for r := 0; r < e.At; {
		end := int(ix.End[r])
		if end > e.At || end == e.At && e.Removed == 0 && e.Inserted > 0 &&
			interval.Compare(next.Tuples[e.At].L, old[r].R) < 0 {
			anc = append(anc, int32(r))
			top = top.child[classLabel(old[r].S)]
			ancClasses = append(ancClasses, top)
			r++
			continue
		}
		r = end
	}

	d := e.Delta()
	ends := make([]int32, len(next.Tuples))
	copy(ends, ix.End[:e.At])
	for _, a := range anc {
		ends[a] += int32(d)
	}
	for i := e.At + e.Removed; i < len(ix.End); i++ {
		ends[i+d] = ix.End[i] + int32(d)
	}
	// The inserted rows, by class. Classes the document lacks are created
	// on the side (fresh), so the classes of ix stay untouched.
	s := splicer{
		e: e, added: map[*class][]int32{}, fresh: map[*class][]*class{},
		ancestors: ancClasses, oldEnd: ix.End, end: ends, tuples: next.Tuples,
	}
	addedPostings := map[string][]int32{}
	classify(next, e.At, e.At+e.Inserted, top, ends, func(parent *class, row int32) *class {
		label := next.Tuples[row].S
		cl := classLabel(label)
		c := s.child(parent, cl)
		s.added[c] = append(s.added[c], row)
		if cl != "" {
			addedPostings[label] = append(addedPostings[label], row)
		}
		return c
	})

	postings := make(map[string][]int32, len(ix.postings)+len(addedPostings))
	for label, rows := range ix.postings {
		if rows, _ = spliceRows(rows, e, addedPostings[label]); len(rows) > 0 {
			postings[label] = rows
		}
	}
	for label, rows := range addedPostings {
		if _, ok := ix.postings[label]; !ok {
			postings[label], _ = spliceRows(nil, e, rows)
		}
	}
	return &DocIndex{Rel: next, End: ends, postings: postings, root: s.class(ix.root)}
}

// splicer applies one edit to a dataguide trie copy-on-write.
type splicer struct {
	e interval.Edit
	// added holds the inserted rows of each class, existing or fresh.
	added map[*class][]int32
	// fresh holds the classes the inserted rows create, by parent, in
	// order of creation.
	fresh map[*class][]*class
	// ancestors are the classes of the nodes whose subtrees contain the
	// edit; oldEnd and end are the subtree ends before and after it, and
	// tuples the rows after it.
	ancestors   []*class
	oldEnd, end []int32
	tuples      []interval.Tuple
}

// child returns parent's child class with the given label, creating a
// fresh one when neither the trie nor the edit has it yet.
func (s *splicer) child(parent *class, label string) *class {
	if c := parent.child[label]; c != nil {
		return c
	}
	for _, c := range s.fresh[parent] {
		if c.label == label {
			return c
		}
	}
	c := newClass(parent, label)
	s.fresh[parent] = append(s.fresh[parent], c)
	return c
}

// class returns c with the edit applied: c itself when neither it nor any
// class below it changes, nil when it is left without instances (its
// subclasses then are too), and a new class otherwise.
func (s *splicer) class(c *class) *class {
	rows, changed := spliceRows(c.rows, s.e, s.added[c])
	if len(rows) == 0 && len(c.rows) > 0 {
		return nil
	}
	fresh := s.fresh[c]
	var kids []*class // nil while the children are c's own
	for i, ch := range c.children {
		k := s.class(ch)
		if k != ch && kids == nil {
			kids = make([]*class, i, len(c.children)+len(fresh))
			copy(kids, c.children)
		}
		if kids != nil && k != nil {
			kids = append(kids, k)
		}
	}
	if len(fresh) > 0 && kids == nil {
		kids = append(make([]*class, 0, len(c.children)+len(fresh)), c.children...)
	}
	for _, ch := range fresh {
		kids = append(kids, s.class(ch))
	}
	if !changed && kids == nil {
		return c
	}
	out := &class{label: c.label, path: c.path, rows: rows, children: c.children, child: c.child}
	s.annotate(out, c)
	if kids != nil {
		out.children = slices.Clip(kids)
		out.child = make(map[string]*class, len(kids))
		for _, k := range kids {
			out.child[k.label] = k
		}
	}
	return out
}

// annotate sets the annotations of out, the class c becomes under the
// edit, from c's: only the removed and inserted rows change the subtree
// size of their own instances, and only an ancestor's grows by the delta.
func (s *splicer) annotate(out, c *class) {
	lo, _ := slices.BinarySearch(c.rows, int32(s.e.At))
	hi, _ := slices.BinarySearch(c.rows, int32(s.e.At+s.e.Removed))
	added := s.added[c]
	out.subtreeRows = c.subtreeRows
	for _, r := range c.rows[lo:hi] {
		out.subtreeRows -= int64(s.oldEnd[r] - r)
	}
	for _, r := range added {
		out.subtreeRows += int64(s.end[r] - r)
	}
	if slices.Contains(s.ancestors, c) {
		out.subtreeRows += int64(s.e.Delta())
	}
	out.distinct = c.distinct
	if c.label == "" && (lo < hi || len(added) > 0) {
		out.distinct = distinctText(s.tuples, out.rows)
	}
}

// spliceRows applies e to an ascending row list: rows the edit removed
// drop out, rows after it shift, and add — ascending rows inside the
// inserted range — goes in between. It returns rows itself, and changed
// false, when the edit does not touch the list; otherwise a list
// allocated at its exact length.
func spliceRows(rows []int32, e interval.Edit, add []int32) (out []int32, changed bool) {
	lo, _ := slices.BinarySearch(rows, int32(e.At))
	hi, _ := slices.BinarySearch(rows, int32(e.At+e.Removed))
	d := int32(e.Delta())
	if len(add) == 0 && lo == hi && (lo == len(rows) || d == 0) {
		return rows, false
	}
	out = make([]int32, lo+len(add)+len(rows)-hi)
	copy(out, rows[:lo])
	copy(out[lo:], add)
	tail := out[lo+len(add):]
	for i, r := range rows[hi:] {
		tail[i] = r + d
	}
	return out, true
}

// PathRows returns the rows of the class at a class path rendered as
// Paths renders it, or nil when the document has no such path.
func (ix *DocIndex) PathRows(path string) []int32 {
	c := ix.root
	for _, seg := range strings.Split(path, "/")[1:] {
		if seg == "#text" {
			seg = ""
		}
		if c = c.child[seg]; c == nil {
			return nil
		}
	}
	return c.rows
}

// HasLabel reports whether any element or attribute in the document carries
// the label. Text-shaped labels always report true: the postings carry no
// text rows, so absence of a text label proves nothing.
func (ix *DocIndex) HasLabel(label string) bool {
	if xmltree.LabelKind(label) == xmltree.Text {
		return true
	}
	_, ok := ix.postings[label]
	return ok
}

// Paths returns every distinct root-to-node class path of the document,
// rendered as "/"-joined class labels with text classes shown as "#text",
// in lexicographic order. This is the strong-dataguide extent; the property
// tests compare it against paths recomputed from the decoded forest.
func (ix *DocIndex) Paths() []string {
	var out []string
	for p := range ix.Annotations() {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Annotations returns the annotations of every class, keyed by its class
// path as Paths renders it.
func (ix *DocIndex) Annotations() map[string]PathStats {
	var classes []*class
	var walk func(c *class)
	walk = func(c *class) {
		for _, ch := range c.children {
			classes = append(classes, ch)
			walk(ch)
		}
	}
	walk(ix.root)
	out := make(map[string]PathStats, len(classes))
	for _, c := range classes {
		out[c.path] = PathStats{Count: int64(len(c.rows)), SubtreeRows: c.subtreeRows, DistinctText: c.distinct}
	}
	return out
}

// LabelCounts returns the instance count of every element and attribute
// label of the document: its posting length.
func (ix *DocIndex) LabelCounts() map[string]int64 {
	out := make(map[string]int64, len(ix.postings))
	for label, rows := range ix.postings {
		out[label] = int64(len(rows))
	}
	return out
}

// segment renders a class label as a Paths segment.
func segment(label string) string {
	if label == "" {
		return "#text"
	}
	return label
}

// StepKind identifies one absorbable path-chain operation, in the engine's
// execution-order vocabulary.
type StepKind int

const (
	// StepSelect keeps the trees whose root carries the step's label.
	StepSelect StepKind = iota
	// StepSelText keeps the text-node trees among the roots.
	StepSelText
	// StepChildren replaces each tree by the forest of its root's children.
	StepChildren
	// StepRoots replaces each tree by its root node, stripped of children.
	StepRoots
	// StepDescendant is subtrees-dfs: every subtree of the forest, each
	// renumbered under a fresh position digit. It is absorbed only together
	// with the select or seltext that directly follows it.
	StepDescendant
)

// Step is one operation of a path chain to resolve against the dataguide.
type Step struct {
	Kind  StepKind
	Label string // StepSelect only
}

// Resolution is the outcome of resolving a step chain: the exact row ranges
// of the answer forest, or Pruned when the dataguide proves the answer
// empty.
type Resolution struct {
	// Ranges lists [start, end) row ranges into Rel, in ascending order of
	// start. Without a descendant step they are disjoint and coalesced;
	// after one, each range is the subtree of one anchor, and anchors may
	// nest, so ranges may too.
	Ranges [][2]int32
	// Pos is nil unless the chain ended in a descendant step and its
	// select: then Pos[i] is the position digit subtrees-dfs gives the
	// subtree Ranges[i] — its root's offset in the forest the descendant
	// step read.
	Pos []int64
	// Rows is the total number of rows covered by Ranges.
	Rows int64
	// Consumed is how many leading steps were absorbed. Callers should
	// only pass absorbable chains; a shorter Consumed means the remainder
	// must run as ordinary operators over the served prefix.
	Consumed int
	// Pruned reports that the class set became empty: the whole chain
	// (and anything derived from it) evaluates to the empty forest.
	Pruned bool
	// Classes are the class paths, rendered as Paths renders them, whose
	// instances are the answer's top-level trees; nil after a descendant
	// step, whose answer is a set of subtrees, not of class instances.
	Classes []string
	// Roots reports that the chain went through StepRoots: each answer
	// tree is an instance's root alone.
	Roots bool
}

// Resolve runs a step chain over the dataguide. Steps apply in execution
// order: steps[0] applies to the document forest first. The invariant
// maintained throughout is that the current forest is exactly the set of
// all instances of a set of same-depth classes — each instance a full
// subtree (or a bare node after StepRoots) — in document order. A
// descendant step ends the walk: with the select or seltext after it, it
// resolves to one subtree per matching descendant-or-self instance (see
// descendants); anywhere else — last, before another step kind, after
// StepRoots — it is not absorbed.
func (ix *DocIndex) Resolve(steps []Step) Resolution {
	classes := ix.root.children
	singleton := false
	consumed := 0
	for i, st := range steps {
		switch st.Kind {
		case StepDescendant:
			label, ok := descendantLabel(steps[i+1:])
			if !ok || singleton {
				return ix.resolution(classes, singleton, consumed)
			}
			return ix.descendants(classes, label, consumed+2)
		case StepSelect:
			if xmltree.LabelKind(st.Label) == xmltree.Text {
				// A text-shaped select label would match text rows by
				// content, which the "" class cannot distinguish.
				return ix.resolution(classes, singleton, consumed)
			}
			classes = filterClasses(classes, st.Label)
		case StepSelText:
			classes = filterClasses(classes, "")
		case StepChildren:
			// After roots() the children are stripped: nothing remains.
			var next []*class
			if !singleton {
				for _, c := range classes {
					next = append(next, c.children...)
				}
			}
			classes = next
		case StepRoots:
			singleton = true
		}
		consumed++
		if len(classes) == 0 {
			return Resolution{Consumed: consumed, Pruned: true}
		}
	}
	return ix.resolution(classes, singleton, consumed)
}

// descendantLabel returns the class label selected by the step after a
// descendant step: the element/attribute label of a select, or "" (the
// text class) for seltext. ok is false when neither follows, or when the
// select label is text-shaped (the guard StepSelect applies too).
func descendantLabel(rest []Step) (label string, ok bool) {
	if len(rest) == 0 {
		return "", false
	}
	switch st := rest[0]; {
	case st.Kind == StepSelText:
		return "", true
	case st.Kind == StepSelect && xmltree.LabelKind(st.Label) != xmltree.Text:
		return st.Label, true
	}
	return "", false
}

// descendants resolves select(label, subtrees-dfs(F)), where F is the
// forest of all instances of classes. subtrees-dfs emits the subtree of
// every row of F, in row order, under a position digit equal to the row's
// offset in F; the select keeps the subtrees rooted at label. So the
// answer is one range [a, End[a]) per label-classed descendant-or-self
// instance a of classes — an anchor — with a's offset in F as its
// position digit. Anchors may nest (a listitem inside a listitem), and
// each nested one is a subtree of its own under its own digit, so the
// ranges overlap and are not coalesced.
func (ix *DocIndex) descendants(classes []*class, label string, consumed int) Resolution {
	var anchors []int32
	var walk func(c *class)
	walk = func(c *class) {
		if c.label == label {
			anchors = append(anchors, c.rows...)
		}
		for _, ch := range c.children {
			walk(ch)
		}
	}
	for _, c := range classes {
		walk(c)
	}
	if len(anchors) == 0 {
		return Resolution{Consumed: consumed, Pruned: true}
	}
	slices.Sort(anchors)
	// F is the disjoint ranges of the classes' subtrees; offset counts the
	// rows of F before in[ri], the range holding the current anchor.
	in := ix.resolution(classes, false, 0).Ranges
	res := Resolution{
		Ranges:   make([][2]int32, len(anchors)),
		Pos:      make([]int64, len(anchors)),
		Consumed: consumed,
	}
	ri, offset := 0, int64(0)
	for i, a := range anchors {
		for a >= in[ri][1] {
			offset += int64(in[ri][1] - in[ri][0])
			ri++
		}
		res.Ranges[i] = [2]int32{a, ix.End[a]}
		res.Pos[i] = offset + int64(a-in[ri][0])
		res.Rows += int64(ix.End[a] - a)
	}
	return res
}

// filterClasses keeps the classes with the given label.
func filterClasses(classes []*class, label string) []*class {
	var out []*class
	for _, c := range classes {
		if c.label == label {
			out = append(out, c)
		}
	}
	return out
}

// resolution materializes the row ranges of a class set. Instances of
// same-depth classes are roots of disjoint subtrees, so after sorting the
// merged rows the ranges are disjoint and in document order.
func (ix *DocIndex) resolution(classes []*class, singleton bool, consumed int) Resolution {
	total := 0
	for _, c := range classes {
		total += len(c.rows)
	}
	if total == 0 {
		return Resolution{Consumed: consumed, Pruned: true}
	}
	rows := make([]int32, 0, total)
	res := Resolution{Consumed: consumed, Roots: singleton}
	for _, c := range classes {
		rows = append(rows, c.rows...)
		res.Classes = append(res.Classes, c.path)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i] < rows[j] })
	var runs interval.Runs
	for _, r := range rows {
		end := r + 1
		if !singleton {
			end = ix.End[r]
		}
		runs.Add(int(r), int(end))
		res.Rows += int64(end - r)
	}
	res.Ranges = runs
	return res
}

// Set is the indexes of a catalog of documents. Epoch is the catalog
// version at which the set was published; a set is immutable, so caches
// key on its pointer.
type Set struct {
	Docs  map[string]*DocIndex
	Epoch uint64
}

// BuildSet indexes every document of a catalog. The DocIndex Rel pointers
// are the catalog's own relations, so the evaluator's pointer-identity
// check accepts exactly the documents this set was built from.
func BuildSet(cat map[string]*interval.Relation) *Set {
	s := &Set{Docs: make(map[string]*DocIndex, len(cat))}
	for name, rel := range cat {
		s.Docs[name] = Build(rel)
	}
	return s
}

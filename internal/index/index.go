// Package index builds persistent structural indexes over interval-encoded
// documents: a strong dataguide (path summary) plus per-label postings, the
// pairing ROADMAP open item 1 calls "the single biggest raw-speed lever at
// scale factors ≥ 1".
//
// A DocIndex holds three structures, all derived from one O(n) pass over the
// document relation and all persisted next to the document by the store
// (the index section of the .dixq format):
//
//   - End: for every row i, the exclusive end of the subtree rooted at i in
//     the L-sorted relation, so any subtree is the contiguous row range
//     [i, End[i]). This is what turns "return this forest" into a handful
//     of range reads instead of a filter over the whole relation.
//   - a dataguide trie: every distinct root-to-node label path in the
//     document is one trie node (a "class"), holding the sorted rows of all
//     its instances. Text nodes collapse into a single "" class per parent
//     path, because the query algebra never selects text by content — only
//     by kind (seltext).
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
package index

import (
	"slices"
	"sort"

	"dixq/internal/interval"
	"dixq/internal/xmltree"
)

// class is one dataguide trie node: a distinct root-to-node label path,
// with the rows (in ascending order) of every instance of that path.
type class struct {
	label    string
	rows     []int32
	children []*class
	child    map[string]*class
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

// Build constructs the index in one stack pass over the L-sorted relation.
func Build(rel *interval.Relation) *DocIndex {
	n := len(rel.Tuples)
	ix := &DocIndex{
		Rel:      rel,
		End:      make([]int32, n),
		postings: map[string][]int32{},
		root:     &class{child: map[string]*class{}},
	}
	type frame struct {
		row int32
		cls *class
	}
	var stack []frame
	for i := 0; i < n; i++ {
		t := rel.Tuples[i]
		for len(stack) > 0 && interval.Compare(rel.Tuples[stack[len(stack)-1].row].R, t.L) < 0 {
			ix.End[stack[len(stack)-1].row] = int32(i)
			stack = stack[:len(stack)-1]
		}
		parent := ix.root
		if len(stack) > 0 {
			parent = stack[len(stack)-1].cls
		}
		cl := classLabel(t.S)
		c := parent.child[cl]
		if c == nil {
			c = &class{label: cl, child: map[string]*class{}}
			parent.child[cl] = c
			parent.children = append(parent.children, c)
		}
		c.rows = append(c.rows, int32(i))
		if cl != "" {
			ix.postings[t.S] = append(ix.postings[t.S], int32(i))
		}
		stack = append(stack, frame{int32(i), c})
	}
	for _, f := range stack {
		ix.End[f.row] = int32(n)
	}
	return ix
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
	var walk func(c *class, prefix string)
	walk = func(c *class, prefix string) {
		label := c.label
		if label == "" {
			label = "#text"
		}
		p := prefix + "/" + label
		out = append(out, p)
		for _, ch := range c.children {
			walk(ch, p)
		}
	}
	for _, ch := range ix.root.children {
		walk(ch, "")
	}
	sort.Strings(out)
	return out
}

// PathCount returns the number of distinct class paths (trie nodes).
func (ix *DocIndex) PathCount() int {
	var count func(c *class) int
	count = func(c *class) int {
		n := 1
		for _, ch := range c.children {
			n += count(ch)
		}
		return n
	}
	return count(ix.root) - 1 // exclude the synthetic root
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
			if singleton {
				// roots() stripped the children; nothing remains.
				classes = nil
			} else {
				var next []*class
				for _, c := range classes {
					next = append(next, c.children...)
				}
				classes = next
			}
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
	for _, c := range classes {
		rows = append(rows, c.rows...)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i] < rows[j] })
	res := Resolution{Consumed: consumed}
	for _, r := range rows {
		end := r + 1
		if !singleton {
			end = ix.End[r]
		}
		if n := len(res.Ranges); n > 0 && res.Ranges[n-1][1] == r {
			res.Ranges[n-1][1] = end
		} else {
			res.Ranges = append(res.Ranges, [2]int32{r, end})
		}
		res.Rows += int64(end - r)
	}
	return res
}

// Set is the indexes of a catalog of documents, tagged with an epoch that
// changes whenever any document (and hence its index) is rebuilt. Plan
// caches key on the epoch so stale index pointers never serve a query.
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

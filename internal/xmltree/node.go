// Package xmltree implements the XML data model of the paper: an ordered
// forest of rooted, node-labeled, ordered trees (Definition 2.1).
//
// Following the paper's encoding conventions, every node carries a single
// string label:
//
//   - an element with tag t is labeled "<t>",
//   - an attribute named a is labeled "@a" and holds its value as a single
//     text child,
//   - a text node's label is its character data.
//
// The label alone determines node identity for structural comparison, so
// the whole model reduces to node-labeled ordered trees exactly as in the
// paper.
//
// A consequence the paper's encoding shares: a text node whose character
// data happens to match the "<tag>" or "@name" shape is indistinguishable
// from an element or attribute node, because the relational encoding stores
// nothing but the label string. Real document text (and all of XMark) never
// has that shape.
package xmltree

import "strings"

// Kind classifies a node by the labeling convention.
type Kind int

const (
	// Element is a node labeled "<tag>".
	Element Kind = iota
	// Attribute is a node labeled "@name".
	Attribute
	// Text is a leaf node whose label is its character data.
	Text
)

func (k Kind) String() string {
	switch k {
	case Element:
		return "element"
	case Attribute:
		return "attribute"
	case Text:
		return "text"
	default:
		return "invalid"
	}
}

// Node is a single node of an XML tree. Nodes are immutable by convention:
// functions in this module and its dependents never modify a Node after it
// has been linked into a forest, so subtrees may be shared freely.
type Node struct {
	Label    string
	Children Forest
}

// Forest is an ordered sequence of trees — the XF domain of the paper.
// The nil Forest is the empty forest [].
type Forest []*Node

// NewElement returns an element node labeled "<tag>" with the given children.
func NewElement(tag string, children ...*Node) *Node {
	return &Node{Label: "<" + tag + ">", Children: children}
}

// NewAttribute returns an attribute node labeled "@name" holding value as a
// text child. An empty value yields an attribute with no children.
func NewAttribute(name, value string) *Node {
	n := &Node{Label: "@" + name}
	if value != "" {
		n.Children = Forest{NewText(value)}
	}
	return n
}

// NewText returns a text node whose label is the character data.
func NewText(data string) *Node {
	return &Node{Label: data}
}

// Kind reports the node's kind under the labeling convention.
func (n *Node) Kind() Kind { return LabelKind(n.Label) }

// LabelKind reports the kind a label denotes under the labeling
// convention, without constructing a node — the per-row form used by the
// pipeline filters.
func LabelKind(label string) Kind {
	switch {
	case len(label) >= 2 && label[0] == '<' && label[len(label)-1] == '>':
		return Element
	case len(label) >= 1 && label[0] == '@':
		return Attribute
	default:
		return Text
	}
}

// Name returns the element tag or attribute name, without the "<>" or "@"
// decoration. For text nodes it returns the empty string.
func (n *Node) Name() string {
	switch n.Kind() {
	case Element:
		return n.Label[1 : len(n.Label)-1]
	case Attribute:
		return n.Label[1:]
	default:
		return ""
	}
}

// Size returns the number of nodes in the subtree rooted at n.
func (n *Node) Size() int {
	size := 1
	for _, c := range n.Children {
		size += c.Size()
	}
	return size
}

// Copy returns a deep copy of the subtree rooted at n.
func (n *Node) Copy() *Node {
	c := &Node{Label: n.Label}
	if len(n.Children) > 0 {
		c.Children = n.Children.Copy()
	}
	return c
}

// Size returns the total number of nodes in the forest.
func (f Forest) Size() int {
	size := 0
	for _, n := range f {
		size += n.Size()
	}
	return size
}

// Copy returns a deep copy of the forest.
func (f Forest) Copy() Forest {
	if f == nil {
		return nil
	}
	c := make(Forest, len(f))
	for i, n := range f {
		c[i] = n.Copy()
	}
	return c
}

// Concat returns the forest f @ g. Neither input is modified; subtrees are
// shared with the inputs.
func (f Forest) Concat(g Forest) Forest {
	if len(f) == 0 {
		return g
	}
	if len(g) == 0 {
		return f
	}
	out := make(Forest, 0, len(f)+len(g))
	out = append(out, f...)
	out = append(out, g...)
	return out
}

// TextValue returns the concatenation of all text-node labels in the forest
// in document order — the string value of the forest.
func (f Forest) TextValue() string {
	var b strings.Builder
	var walk func(Forest)
	walk = func(fs Forest) {
		for _, n := range fs {
			if n.Kind() == Text {
				b.WriteString(n.Label)
			}
			walk(n.Children)
		}
	}
	walk(f)
	return b.String()
}

// Equal reports structural (deep) equality of two forests: same length and
// pairwise equal trees.
func (f Forest) Equal(g Forest) bool {
	return f.Compare(g) == 0
}

// Compare totally orders forests by the paper's structural (tree) order:
// the document-order sequence of node labels is compared lexicographically,
// with tree structure breaking ties so that a missing sibling sorts before
// any present one. It is exactly the order decided by the DeepCompare
// physical operator (Algorithm 5.3); the engine tests cross-check the two.
// The result is -1, 0, or +1.
func (f Forest) Compare(g Forest) int {
	n := len(f)
	if len(g) < n {
		n = len(g)
	}
	for i := 0; i < n; i++ {
		if c := compareTree(f[i], g[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(f) < len(g):
		return -1
	case len(f) > len(g):
		return 1
	default:
		return 0
	}
}

func compareTree(a, b *Node) int {
	if a.Label < b.Label {
		return -1
	}
	if a.Label > b.Label {
		return 1
	}
	return a.Children.Compare(b.Children)
}

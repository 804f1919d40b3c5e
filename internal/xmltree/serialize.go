package xmltree

import (
	"bufio"
	"io"
	"strings"
)

// String renders the forest as XML text (see WriteNodes).
func (f Forest) String() string {
	var b strings.Builder
	WriteNodes(&b, f.Preorder()) // writing to a strings.Builder cannot fail
	return b.String()
}

// Indent renders the forest as indented XML text, one node per line, for
// human consumption.
func (f Forest) Indent() string {
	var b strings.Builder
	writeIndent(&b, f, 0)
	return b.String()
}

// String renders the single-node tree rooted at n as XML text.
func (n *Node) String() string {
	return Forest{n}.String()
}

// Walk is a preorder walk of a forest: it calls visit with the depth (0
// for a root) and label of every node, in document order.
type Walk func(visit func(depth int, label string))

// Preorder returns the forest's preorder walk.
func (f Forest) Preorder() Walk {
	return func(visit func(int, string)) {
		var walk func(Forest, int)
		walk = func(fs Forest, depth int) {
			for _, n := range fs {
				visit(depth, n.Label)
				walk(n.Children, depth+1)
			}
		}
		walk(f, 0)
	}
}

// WriteNodes renders the forest a preorder walk visits as XML text — the
// one serializer behind Forest.String and interval.WriteXML. Attribute
// nodes that lead an element's children are rendered inside its start
// tag; attribute nodes in any other position (legal in the paper's model,
// e.g. produced by queries) are rendered as name="value" tokens in place.
// An attribute's value is the text of its text descendants, and a text
// node's descendants are not rendered.
func WriteNodes(w io.Writer, walk Walk) error {
	bw := bufio.NewWriter(w)
	// open holds the names of the open elements; text and attribute nodes
	// absorb their descendants, so every rendered node's ancestors are on
	// it. inTag reports that the innermost one's start tag is still open
	// (no content child seen yet); absorbing is the depth of the absorbing
	// node, if any.
	var open []string
	inTag, absorbing, inAttr := false, -1, false
	visit := func(depth int, label string) {
		kind := LabelKind(label)
		if absorbing >= 0 && depth > absorbing {
			if inAttr && kind == Text {
				attrEscaper.WriteString(bw, label)
			}
			return
		}
		if inAttr {
			bw.WriteByte('"')
		}
		absorbing, inAttr = -1, false
		for ; len(open) > depth; open = open[:len(open)-1] {
			if inTag {
				bw.WriteString("/>")
				inTag = false
			} else {
				bw.WriteString("</")
				bw.WriteString(open[len(open)-1])
				bw.WriteByte('>')
			}
		}
		if inTag && kind != Attribute {
			bw.WriteByte('>')
			inTag = false
		}
		switch kind {
		case Element:
			name := label[1 : len(label)-1]
			bw.WriteByte('<')
			bw.WriteString(name)
			open, inTag = append(open, name), true
		case Attribute:
			if inTag {
				bw.WriteByte(' ')
			}
			bw.WriteString(label[1:])
			bw.WriteString(`="`)
			absorbing, inAttr = depth, true
		default:
			textEscaper.WriteString(bw, label)
			absorbing = depth
		}
	}
	walk(visit)
	visit(0, "") // an empty text root closes whatever is still open
	return bw.Flush()
}

func writeAttr(b *strings.Builder, n *Node) {
	b.WriteString(n.Name())
	b.WriteString(`="`)
	b.WriteString(attrEscaper.Replace(n.Children.TextValue()))
	b.WriteByte('"')
}

func writeIndent(b *strings.Builder, f Forest, depth int) {
	for _, n := range f {
		for i := 0; i < depth; i++ {
			b.WriteString("  ")
		}
		switch n.Kind() {
		case Element:
			name := n.Name()
			b.WriteByte('<')
			b.WriteString(name)
			rest := n.Children
			for len(rest) > 0 && rest[0].Kind() == Attribute {
				b.WriteByte(' ')
				writeAttr(b, rest[0])
				rest = rest[1:]
			}
			if len(rest) == 0 {
				b.WriteString("/>\n")
				continue
			}
			if len(rest) == 1 && rest[0].Kind() == Text {
				b.WriteByte('>')
				b.WriteString(textEscaper.Replace(rest[0].Label))
				b.WriteString("</")
				b.WriteString(name)
				b.WriteString(">\n")
				continue
			}
			b.WriteString(">\n")
			writeIndent(b, rest, depth+1)
			for i := 0; i < depth; i++ {
				b.WriteString("  ")
			}
			b.WriteString("</")
			b.WriteString(name)
			b.WriteString(">\n")
		case Attribute:
			writeAttr(b, n)
			b.WriteByte('\n')
		case Text:
			b.WriteString(textEscaper.Replace(n.Label))
			b.WriteByte('\n')
		}
	}
}

var textEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")

var attrEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", `"`, "&quot;")

package interval

import (
	"io"
	"strings"

	"dixq/internal/xmltree"
)

// EncodeXML shreds XML text directly into its interval encoding, without
// materializing the tree: the scanner's event stream drives the Example
// 3.2 depth-first counter. The relation is identical to Parse followed by
// Encode; it is built by a one-digit Builder sized from a sound bound, so
// tuples and keys are allocated once, and element and attribute labels
// are interned per document.
func EncodeXML(src string) (*Relation, error) {
	s := &shredder{b: NewBuilder(1, tupleBound(src)), labels: map[string]string{}}
	if err := xmltree.Scan(src, false, s); err != nil {
		return nil, err
	}
	return s.b.Relation(), nil
}

// tupleBound bounds the tuples EncodeXML makes of src from above: one per
// '<' not opening an end tag, two per '=' (attribute and value), and one
// per text run, which starts at the input's start, at a CDATA section, or
// after a '>' not followed by whitespace and '<'.
func tupleBound(src string) int {
	n := 1 + strings.Count(src, "<") - strings.Count(src, "</") + strings.Count(src, "<![") + 2*strings.Count(src, "=")
	for rest := src; ; {
		i := strings.IndexByte(rest, '>')
		if i < 0 {
			return n
		}
		rest = rest[i+1:]
		if next := strings.TrimLeft(rest, " \t\r\n"); next != "" && next[0] != '<' {
			n++
		}
	}
}

// shredder implements xmltree.Handler, assigning l on entry and r on exit
// with one incrementing counter.
type shredder struct {
	b       *Builder
	labels  map[string]string // "<tag>" and "@name" labels by their decorated form
	counter int64
	stack   []int // open tuple indexes
}

// label interns a decorated element or attribute label. The lookup key
// is built on the stack; only a label's first occurrence allocates.
func (s *shredder) label(prefix byte, name, suffix string) string {
	var buf [64]byte
	key := append(append(append(buf[:0], prefix), name...), suffix...)
	if l, ok := s.labels[string(key)]; ok {
		return l
	}
	l := string(key)
	s.labels[l] = l
	return l
}

func (s *shredder) open(label string) int {
	s.counter++
	return s.b.Emit(label, s.counter-1, 0)
}

func (s *shredder) close(idx int) {
	s.b.SetRTail(idx, s.counter)
	s.counter++
}

func (s *shredder) StartElement(name string) {
	s.stack = append(s.stack, s.open(s.label('<', name, ">")))
}

func (s *shredder) Attribute(name, value string) {
	idx := s.open(s.label('@', name, ""))
	if value != "" {
		s.close(s.open(value))
	}
	s.close(idx)
}

func (s *shredder) Text(data string) {
	s.close(s.open(data))
}

func (s *shredder) EndElement(string) {
	idx := s.stack[len(s.stack)-1]
	s.stack = s.stack[:len(s.stack)-1]
	s.close(idx)
}

// WriteXML renders the forest the relation encodes as XML text straight
// from its preorder walk, without building the tree: the bytes are
// exactly Decode(r).String(). The relation must be a valid encoding (see
// Validate).
func WriteXML(w io.Writer, r *Relation) error { return xmltree.WriteNodes(w, r.Preorder()) }

// XML returns WriteXML's rendering of the relation as a string.
func XML(r *Relation) string {
	var b strings.Builder
	WriteXML(&b, r) // writing to a strings.Builder cannot fail
	return b.String()
}

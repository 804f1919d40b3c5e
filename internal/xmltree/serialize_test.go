package xmltree

import (
	"math/rand"
	"strings"
	"testing"
)

// writeByTree is the recursive tree serializer WriteNodes replaced, kept
// as its oracle.
func writeByTree(b *strings.Builder, f Forest) {
	for _, n := range f {
		switch n.Kind() {
		case Element:
			b.WriteString("<" + n.Name())
			rest := n.Children
			for len(rest) > 0 && rest[0].Kind() == Attribute {
				b.WriteByte(' ')
				attrByTree(b, rest[0])
				rest = rest[1:]
			}
			if len(rest) == 0 {
				b.WriteString("/>")
				continue
			}
			b.WriteByte('>')
			writeByTree(b, rest)
			b.WriteString("</" + n.Name() + ">")
		case Attribute:
			attrByTree(b, n)
		case Text:
			b.WriteString(textEscaper.Replace(n.Label))
		}
	}
}

func attrByTree(b *strings.Builder, n *Node) {
	b.WriteString(n.Name() + `="` + attrEscaper.Replace(n.Children.TextValue()) + `"`)
}

// wildForest is a random forest in which any node — text and attribute
// nodes included — may have children of any kind, and labels carry the
// characters the serializer escapes: shapes queries can construct even
// though no parsed document has them.
func wildForest(rng *rand.Rand, budget, depth int) Forest {
	labels := []string{"<a>", "<b>", "@x", "@y", "t", `&<>"`, ""}
	var f Forest
	for budget > 0 && (depth == 0 || rng.Intn(3) > 0) {
		n := &Node{Label: labels[rng.Intn(len(labels))]}
		budget--
		if depth < 4 && budget > 0 && rng.Intn(2) == 0 {
			n.Children = wildForest(rng, rng.Intn(budget+1), depth+1)
			budget -= n.Children.Size()
		}
		f = append(f, n)
	}
	return f
}

// TestWriteNodesMatchesTreeSerializer checks the walk-driven serializer
// against the recursive tree writer on random forests, plain and wild.
func TestWriteNodesMatchesTreeSerializer(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 2000; i++ {
		f := RandomForest(rng, 40)
		if i%2 == 1 {
			f = wildForest(rng, 1+rng.Intn(40), 0)
		}
		var want strings.Builder
		writeByTree(&want, f)
		if got := f.String(); got != want.String() {
			t.Fatalf("forest %d:\n got %q\nwant %q", i, got, want.String())
		}
	}
}

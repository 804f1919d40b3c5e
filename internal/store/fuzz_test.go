package store

import (
	"bytes"
	"math/rand"
	"testing"

	"dixq/internal/interval"
	"dixq/internal/xmark"
	"dixq/internal/xmltree"
)

// FuzzStoreRead throws arbitrary bytes at the store decoder. The contract
// under fuzzing: never panic, never allocate proportionally to a length
// field the input merely claims (the maxSaneLen / key-length / label-length
// guards), and reject corrupt input with an error rather than garbage.
func FuzzStoreRead(f *testing.F) {
	// Seed with valid files at several shapes, in the current format,
	// under the current magic without a checksum, and under a retired
	// magic, which must be rejected.
	seedRels := []*interval.Relation{
		{},
		interval.Encode(xmark.Figure1Forest()),
		interval.Encode(xmltree.RandomForest(rand.New(rand.NewSource(1)), 30)),
		{Tuples: []interval.Tuple{{S: "", L: nil, R: interval.Key{3}}}},
	}
	for _, rel := range seedRels {
		f.Add(encode(f, rel))
		f.Add(sections(f, magic, rel))
		f.Add(seal(sections(f, retiredV3, rel)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rel, _, _, err := ReadFull(bytes.NewReader(data))
		if err != nil && !isTyped(err) {
			t.Fatalf("untyped error %v", err)
		}
		if err == nil {
			// A successful read must have produced a self-consistent
			// relation whose size is bounded by the input that encoded it:
			// every tuple costs at least three bytes on the wire.
			if len(rel.Tuples) > len(data) {
				t.Fatalf("decoded %d tuples from %d bytes", len(rel.Tuples), len(data))
			}
		}
	})
}

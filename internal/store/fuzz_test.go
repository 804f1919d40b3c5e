package store

import (
	"bytes"
	"io"
	"math/rand"
	"testing"

	"dixq/internal/interval"
	"dixq/internal/xmark"
	"dixq/internal/xmltree"
)

// FuzzStoreRead throws arbitrary bytes at both decoders. The contract
// under fuzzing: never panic, never allocate proportionally to a length
// field the input merely claims (the maxSaneLen / key-length / label-length
// guards), and reject corrupt input with an error rather than garbage.
func FuzzStoreRead(f *testing.F) {
	// Seed with valid files at several shapes, in the current format and
	// under both retired magics, which must be rejected.
	seedRels := []*interval.Relation{
		{},
		interval.Encode(xmark.Figure1Forest()),
		interval.Encode(xmltree.RandomForest(rand.New(rand.NewSource(1)), 30)),
		{Tuples: []interval.Tuple{{S: "", L: nil, R: interval.Key{3}}}},
	}
	for _, rel := range seedRels {
		f.Add(encode(f, rel))
		f.Add(sections(f, retiredV1, rel, false))
		f.Add(sections(f, retiredV2, rel, true))
	}
	// And a valid run stream, so the corpus covers the run magic too.
	var runBuf bytes.Buffer
	w, err := NewRunWriter(&runBuf)
	if err != nil {
		f.Fatal(err)
	}
	for _, tp := range seedRels[1].Tuples {
		if err := w.Tuple(tp); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(runBuf.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		if rel, _, _, err := ReadFull(bytes.NewReader(data)); err == nil {
			// A successful read must have produced a self-consistent
			// relation whose size is bounded by the input that encoded it:
			// every tuple costs at least three bytes on the wire.
			if len(rel.Tuples) > len(data) {
				t.Fatalf("decoded %d tuples from %d bytes", len(rel.Tuples), len(data))
			}
		}
		if r, err := NewRunReader(bytes.NewReader(data)); err == nil {
			n := 0
			for {
				_, err := r.Tuple()
				if err != nil {
					if err != io.EOF && n > len(data) {
						t.Fatalf("run decoded %d tuples from %d bytes", n, len(data))
					}
					break
				}
				n++
				if n > len(data) {
					t.Fatalf("run yielded more tuples than input bytes")
				}
			}
		}
	})
}

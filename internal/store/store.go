// Package store persists interval-encoded documents — the "XML documents
// already stored in a relational system" starting point the paper's
// introduction assumes. A stored document is the ternary relation of
// Definition 3.1 in a compact binary form: shred once with interval.Encode,
// save, then serve any number of queries straight from the relation
// without reparsing XML.
//
// Format: a label dictionary (labels repeat heavily in documents
// — element tags, attribute names) followed by tuples referencing labels
// by index, all integers varint-encoded; keys store their digit vectors
// verbatim, so documents at any environment depth round-trip. After that
// body come the document's structural index (see internal/index) and its
// optimizer statistics (see internal/stats), so a loaded document brings
// its dataguide, subtree ranges and cardinalities at no rebuild cost.
// Loading validates the body's interval nesting: a store is the one way a
// relation enters the catalog from outside the encoder.
package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"dixq/internal/index"
	"dixq/internal/interval"
	"dixq/internal/stats"
)

// magic identifies the file format.
const magic = "DIXQS3\n"

// maxSaneLen bounds length fields while decoding, so corrupt or hostile
// files fail fast instead of allocating wildly.
const maxSaneLen = 1 << 31

// ErrFormat reports a malformed or foreign file.
var ErrFormat = errors.New("store: not a .dixq store file")

// WriteFull serializes a relation together with its structural index and
// optimizer statistics. Index and statistics must have been built over
// rel.
func WriteFull(w io.Writer, rel *interval.Relation, ix *index.DocIndex, st *stats.DocStats) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	if err := writeBody(bw, rel); err != nil {
		return err
	}
	if err := ix.Write(bw); err != nil {
		return err
	}
	if err := st.Write(bw); err != nil {
		return err
	}
	return bw.Flush()
}

func writeBody(bw *bufio.Writer, rel *interval.Relation) error {
	labelIdx := map[string]uint64{}
	var labels []string
	for _, t := range rel.Tuples {
		if _, ok := labelIdx[t.S]; !ok {
			labelIdx[t.S] = uint64(len(labels))
			labels = append(labels, t.S)
		}
	}
	var buf [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := writeUvarint(uint64(len(labels))); err != nil {
		return err
	}
	for _, s := range labels {
		if err := writeUvarint(uint64(len(s))); err != nil {
			return err
		}
		if _, err := bw.WriteString(s); err != nil {
			return err
		}
	}
	if err := writeUvarint(uint64(len(rel.Tuples))); err != nil {
		return err
	}
	writeKey := func(k interval.Key) error {
		if err := writeUvarint(uint64(len(k))); err != nil {
			return err
		}
		for _, d := range k {
			if d < 0 {
				return fmt.Errorf("store: negative key digit %d", d)
			}
			if err := writeUvarint(uint64(d)); err != nil {
				return err
			}
		}
		return nil
	}
	for _, t := range rel.Tuples {
		if err := writeUvarint(labelIdx[t.S]); err != nil {
			return err
		}
		if err := writeKey(t.L); err != nil {
			return err
		}
		if err := writeKey(t.R); err != nil {
			return err
		}
	}
	return nil
}

// ReadFull deserializes a relation together with its structural index and
// optimizer statistics, rejecting a relation that is not a valid interval
// encoding (interval.Validate).
func ReadFull(r io.Reader) (*interval.Relation, *index.DocIndex, *stats.DocStats, error) {
	dec := &decoder{br: bufio.NewReader(r)}
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(dec.br, head); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, nil, nil, ErrFormat
		}
		return nil, nil, nil, fmt.Errorf("store: read header: %w", err)
	}
	if string(head) != magic {
		return nil, nil, nil, ErrFormat
	}
	rel, err := dec.body()
	if err != nil {
		return nil, nil, nil, err
	}
	if err := interval.Validate(rel); err != nil {
		return nil, nil, nil, fmt.Errorf("store: %w", err)
	}
	ix, err := index.Read(dec.br, rel)
	if err != nil {
		return nil, nil, nil, err
	}
	st, err := stats.Read(dec.br)
	if err != nil {
		return nil, nil, nil, err
	}
	// Exactly at end?
	if _, err := dec.br.ReadByte(); err != io.EOF {
		return nil, nil, nil, fmt.Errorf("store: trailing bytes after %d tuples", len(rel.Tuples))
	}
	return rel, ix, st, nil
}

func (dec *decoder) body() (*interval.Relation, error) {
	nLabels, err := dec.uvarint()
	if err != nil {
		return nil, err
	}
	labels := make([]string, nLabels)
	for i := range labels {
		n, err := dec.uvarint()
		if err != nil {
			return nil, err
		}
		b := make([]byte, n)
		if _, err := io.ReadFull(dec.br, b); err != nil {
			return nil, fmt.Errorf("store: truncated label: %w", err)
		}
		labels[i] = string(b)
	}
	nTuples, err := dec.uvarint()
	if err != nil {
		return nil, err
	}
	rel := &interval.Relation{Tuples: make([]interval.Tuple, 0, min(nTuples, 1<<20))}
	for i := uint64(0); i < nTuples; i++ {
		li, err := dec.uvarint()
		if err != nil {
			return nil, err
		}
		if li >= uint64(len(labels)) {
			return nil, fmt.Errorf("store: label index %d out of range", li)
		}
		l, err := dec.key()
		if err != nil {
			return nil, err
		}
		rk, err := dec.key()
		if err != nil {
			return nil, err
		}
		rel.Tuples = append(rel.Tuples, interval.Tuple{S: labels[li], L: l, R: rk})
	}
	return rel, nil
}

type decoder struct {
	br *bufio.Reader
	// arena backs all decoded keys, replacing two heap allocations per
	// tuple with shared chunks.
	arena interval.KeyArena
}

func (d *decoder) uvarint() (uint64, error) {
	v, err := binary.ReadUvarint(d.br)
	if err != nil {
		return 0, fmt.Errorf("store: truncated varint: %w", err)
	}
	if v > maxSaneLen {
		return 0, fmt.Errorf("store: implausible length %d", v)
	}
	return v, nil
}

func (d *decoder) key() (interval.Key, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	if n > 1<<16 {
		return nil, fmt.Errorf("store: implausible key length %d", n)
	}
	k := d.arena.Alloc(int(n))
	for i := range k {
		v, err := binary.ReadUvarint(d.br)
		if err != nil {
			return nil, fmt.Errorf("store: truncated key: %w", err)
		}
		k[i] = int64(v)
	}
	return k, nil
}

// SaveFull writes a relation, its structural index and its optimizer
// statistics to a file, atomically via a temporary sibling: the temporary
// file is synced before it is renamed over the target, so a crash leaves
// either the old store or the complete new one, never an empty file under
// the final name.
func SaveFull(path string, rel *interval.Relation, ix *index.DocIndex, st *stats.DocStats) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".dixq-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := WriteFull(tmp, rel, ix, st); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: sync %s: %w", tmp.Name(), err)
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("store: rename %s to %s: %w", tmp.Name(), path, err)
	}
	return nil
}

// LoadFull reads a relation, its structural index and its optimizer
// statistics from a file (see ReadFull).
func LoadFull(path string) (*interval.Relation, *index.DocIndex, *stats.DocStats, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, nil, err
	}
	defer f.Close()
	rel, ix, st, err := ReadFull(f)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return rel, ix, st, nil
}

// Package store persists interval-encoded documents — the "XML documents
// already stored in a relational system" starting point the paper's
// introduction assumes. A stored document is the ternary relation of
// Definition 3.1 in a compact binary form: shred once with interval.Encode,
// save, then serve any number of queries straight from the relation
// without reparsing XML.
//
// Format (DIXQS4): the magic line, then the body — a label dictionary
// (labels repeat heavily in documents — element tags, attribute names)
// followed by tuples referencing labels by index, all integers
// varint-encoded; keys store their digit vectors verbatim, so documents
// at any environment depth round-trip — and last the CRC-32C
// (Castagnoli) of every byte before it, little-endian. A file holds the
// relation only: the structural index, whose dataguide classes carry the
// statistics, is built again on load (index.Build), which costs about as
// much as decoding it did. Loading checks the checksum, then validates the
// body's interval nesting: a store is the one way a relation enters the
// catalog from outside the encoder.
package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"dixq/internal/index"
	"dixq/internal/interval"
)

// magic identifies the file format. The retired DIXQS1–3 formats, which
// carried the index and statistics in sections of their own, are not
// read.
const magic = "DIXQS4\n"

// maxSaneLen bounds length fields while decoding, so corrupt or hostile
// files fail fast instead of allocating wildly.
const maxSaneLen = 1 << 31

// castagnoli is the CRC-32C table of the trailing checksum.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrFormat reports a malformed or foreign file: a short or unknown
// header, a retired format's included.
var ErrFormat = errors.New("store: not a .dixq store file")

// ErrCorrupt reports a store file whose checksum does not match or whose
// body does not decode to a valid interval relation.
var ErrCorrupt = errors.New("store: corrupt store file")

// Write serializes a relation: magic, body, checksum.
func Write(w io.Writer, rel *interval.Relation) error {
	sum := crc32.New(castagnoli)
	bw := bufio.NewWriter(io.MultiWriter(w, sum))
	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	if err := writeBody(bw, rel); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	_, err := w.Write(binary.LittleEndian.AppendUint32(nil, sum.Sum32()))
	return err
}

// WriteFull is Write for callers that hold a document's index and its
// statistics, which are the index too. It writes neither: the format
// holds the relation only, and ReadFull builds the index again.
func WriteFull(w io.Writer, rel *interval.Relation, ix, st *index.DocIndex) error {
	return Write(w, rel)
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

// ReadFull deserializes a relation written by Write and builds its
// structural index, returned twice: as the index and as the statistics
// its classes carry. A short or unknown header is ErrFormat, a checksum
// mismatch or an undecodable or invalid body (interval.Validate)
// ErrCorrupt, and a failing reader's error is returned wrapped.
func ReadFull(r io.Reader) (*interval.Relation, *index.DocIndex, *index.DocIndex, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("store: read: %w", err)
	}
	rel, err := decode(data)
	if err != nil {
		return nil, nil, nil, err
	}
	ix := index.Build(rel)
	return rel, ix, ix, nil
}

func decode(data []byte) (*interval.Relation, error) {
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		return nil, ErrFormat
	}
	n := len(data) - crc32.Size
	if n < len(magic) {
		return nil, fmt.Errorf("%w: truncated checksum", ErrCorrupt)
	}
	if crc32.Checksum(data[:n], castagnoli) != binary.LittleEndian.Uint32(data[n:]) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	dec := &decoder{buf: data[len(magic):n]}
	rel, err := dec.body()
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	if len(dec.buf) > 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after %d tuples", ErrCorrupt, len(dec.buf), len(rel.Tuples))
	}
	if err := interval.Validate(rel); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	return rel, nil
}

func (dec *decoder) body() (*interval.Relation, error) {
	nLabels, err := dec.uvarint()
	if err != nil {
		return nil, err
	}
	labels := make([]string, min(nLabels, uint64(len(dec.buf))))
	for i := range labels {
		n, err := dec.uvarint()
		if err != nil {
			return nil, err
		}
		if n > uint64(len(dec.buf)) {
			return nil, errors.New("truncated label")
		}
		labels[i], dec.buf = string(dec.buf[:n]), dec.buf[n:]
	}
	if uint64(len(labels)) < nLabels {
		return nil, errors.New("truncated label dictionary")
	}
	nTuples, err := dec.uvarint()
	if err != nil {
		return nil, err
	}
	rel := &interval.Relation{Tuples: make([]interval.Tuple, 0, min(nTuples, uint64(len(dec.buf))/3))}
	for i := uint64(0); i < nTuples; i++ {
		li, err := dec.uvarint()
		if err != nil {
			return nil, err
		}
		if li >= uint64(len(labels)) {
			return nil, fmt.Errorf("label index %d out of range", li)
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

// decoder reads a body out of buf, which it consumes.
type decoder struct {
	buf []byte
	// arena backs all decoded keys, replacing two heap allocations per
	// tuple with shared chunks.
	arena interval.KeyArena
}

func (d *decoder) varint() (uint64, error) {
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		return 0, errors.New("truncated varint")
	}
	d.buf = d.buf[n:]
	return v, nil
}

func (d *decoder) uvarint() (uint64, error) {
	v, err := d.varint()
	if err == nil && v > maxSaneLen {
		return 0, fmt.Errorf("implausible length %d", v)
	}
	return v, err
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
		return nil, fmt.Errorf("implausible key length %d", n)
	}
	k := d.arena.Alloc(int(n))
	for i := range k {
		v, err := d.varint()
		if err != nil {
			return nil, err
		}
		k[i] = int64(v)
	}
	return k, nil
}

// Save writes a relation to a file, atomically via a temporary sibling:
// the temporary file is synced before it is renamed over the target, so
// a crash leaves either the old store or the complete new one, never an
// empty file under the final name.
func Save(path string, rel *interval.Relation) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".dixq-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := Write(tmp, rel); err != nil {
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

// Load reads a relation from a file (see ReadFull).
func Load(path string) (*interval.Relation, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rel, err := decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rel, nil
}

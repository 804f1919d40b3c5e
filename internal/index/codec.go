// Index serialization: the persistent form appended to a store file after
// the document body. Row arrays (End, class rows, postings) are
// fixed-width little-endian int32 — the same mmap-friendly flat layout as
// the document itself — with uvarint counts and length-prefixed labels.
package index

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"dixq/internal/interval"
)

// maxSaneLen bounds length fields while decoding, mirroring the store's
// guard against corrupt or hostile files.
const maxSaneLen = 1 << 31

// Write serializes the index (without its relation, which the store writes
// separately).
func (ix *DocIndex) Write(w *bufio.Writer) error {
	var buf [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := w.Write(buf[:n])
		return err
	}
	writeRows := func(rows []int32) error {
		if err := writeUvarint(uint64(len(rows))); err != nil {
			return err
		}
		var b [4]byte
		for _, r := range rows {
			binary.LittleEndian.PutUint32(b[:], uint32(r))
			if _, err := w.Write(b[:]); err != nil {
				return err
			}
		}
		return nil
	}
	writeString := func(s string) error {
		if err := writeUvarint(uint64(len(s))); err != nil {
			return err
		}
		_, err := w.WriteString(s)
		return err
	}
	if err := writeRows(ix.End); err != nil {
		return err
	}
	var writeClass func(c *class) error
	writeClass = func(c *class) error {
		if err := writeString(c.label); err != nil {
			return err
		}
		if err := writeRows(c.rows); err != nil {
			return err
		}
		if err := writeUvarint(uint64(len(c.children))); err != nil {
			return err
		}
		for _, ch := range c.children {
			if err := writeClass(ch); err != nil {
				return err
			}
		}
		return nil
	}
	return writeClass(ix.root)
}

// Read deserializes an index written by Write and attaches it to rel.
// Postings are not stored: they are recovered from the trie, whose classes
// partition the element/attribute rows by label along distinct paths.
func Read(r *bufio.Reader, rel *interval.Relation) (*DocIndex, error) {
	readUvarint := func() (uint64, error) {
		v, err := binary.ReadUvarint(r)
		if err != nil {
			return 0, fmt.Errorf("index: truncated varint: %w", err)
		}
		if v > maxSaneLen {
			return 0, fmt.Errorf("index: implausible length %d", v)
		}
		return v, nil
	}
	n := len(rel.Tuples)
	readRows := func(max int) ([]int32, error) {
		count, err := readUvarint()
		if err != nil {
			return nil, err
		}
		if count > uint64(max) {
			return nil, fmt.Errorf("index: row count %d exceeds relation size %d", count, max)
		}
		rows := make([]int32, count)
		var b [4]byte
		for i := range rows {
			if _, err := io.ReadFull(r, b[:]); err != nil {
				return nil, fmt.Errorf("index: truncated rows: %w", err)
			}
			v := int32(binary.LittleEndian.Uint32(b[:]))
			if v < 0 || v > int32(max) {
				return nil, fmt.Errorf("index: row %d out of range", v)
			}
			rows[i] = v
		}
		return rows, nil
	}
	readString := func() (string, error) {
		l, err := readUvarint()
		if err != nil {
			return "", err
		}
		b := make([]byte, l)
		if _, err := io.ReadFull(r, b); err != nil {
			return "", fmt.Errorf("index: truncated label: %w", err)
		}
		return string(b), nil
	}
	ix := &DocIndex{Rel: rel, postings: map[string][]int32{}}
	end, err := readRows(n)
	if err != nil {
		return nil, err
	}
	if len(end) != n {
		return nil, fmt.Errorf("index: End length %d for %d-tuple relation", len(end), n)
	}
	ix.End = end
	var readClass func(depth int) (*class, error)
	readClass = func(depth int) (*class, error) {
		if depth > 1<<16 {
			return nil, fmt.Errorf("index: trie depth exceeds %d", 1<<16)
		}
		label, err := readString()
		if err != nil {
			return nil, err
		}
		rows, err := readRows(n)
		if err != nil {
			return nil, err
		}
		nc, err := readUvarint()
		if err != nil {
			return nil, err
		}
		if nc > uint64(n)+1 {
			return nil, fmt.Errorf("index: child count %d exceeds relation size", nc)
		}
		c := &class{label: label, rows: rows, child: map[string]*class{}}
		for i := uint64(0); i < nc; i++ {
			ch, err := readClass(depth + 1)
			if err != nil {
				return nil, err
			}
			c.child[ch.label] = ch
			c.children = append(c.children, ch)
		}
		return c, nil
	}
	root, err := readClass(0)
	if err != nil {
		return nil, err
	}
	ix.root = root
	var fill func(c *class)
	fill = func(c *class) {
		if c.label != "" && len(c.rows) > 0 {
			ix.postings[c.label] = append(ix.postings[c.label], c.rows...)
		}
		for _, ch := range c.children {
			fill(ch)
		}
	}
	for _, ch := range root.children {
		fill(ch)
	}
	for _, rows := range ix.postings {
		if !sort.SliceIsSorted(rows, func(i, j int) bool { return rows[i] < rows[j] }) {
			r := rows
			sort.Slice(r, func(i, j int) bool { return r[i] < r[j] })
		}
	}
	return ix, nil
}

package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
	"testing/quick"

	"dixq/internal/index"
	"dixq/internal/interval"
	"dixq/internal/xmark"
	"dixq/internal/xmltree"
)

// encode serializes rel.
func encode(t testing.TB, rel *interval.Relation) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, rel); err != nil {
		t.Fatalf("Write: %v", err)
	}
	return buf.Bytes()
}

// The prefixes of the three retired formats: DIXQS1 was the body alone,
// DIXQS2 the body plus the structural index, DIXQS3 both plus the
// statistics. No reader accepts them.
const (
	retiredV1 = "DIXQS1\n"
	retiredV2 = "DIXQS2\n"
	retiredV3 = "DIXQS3\n"
)

// sections builds a file of prefix and the body, without a checksum: the
// shape of a retired-format file's head, or with the current magic a file
// cut before its checksum.
func sections(t testing.TB, prefix string, rel *interval.Relation) []byte {
	t.Helper()
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	bw.WriteString(prefix)
	if err := writeBody(bw, rel); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// seal appends the checksum Write would to a hand-built file, so the
// decoder's own guards, not the checksum, meet its content.
func seal(file []byte) []byte {
	return binary.LittleEndian.AppendUint32(file, crc32.Checksum(file, castagnoli))
}

// isTyped reports whether err is one of the loader's two typed errors.
func isTyped(err error) bool { return errors.Is(err, ErrFormat) || errors.Is(err, ErrCorrupt) }

func roundTrip(t *testing.T, rel *interval.Relation) *interval.Relation {
	t.Helper()
	got, _, _, err := ReadFull(bytes.NewReader(encode(t, rel)))
	if err != nil {
		t.Fatalf("ReadFull: %v", err)
	}
	return got
}

func equalRel(a, b *interval.Relation) bool {
	if len(a.Tuples) != len(b.Tuples) {
		return false
	}
	for i := range a.Tuples {
		x, y := a.Tuples[i], b.Tuples[i]
		if x.S != y.S || !x.L.Equal(y.L) || !x.R.Equal(y.R) {
			return false
		}
	}
	return true
}

func TestRoundTripFigure1(t *testing.T) {
	rel := interval.Encode(xmark.Figure1Forest())
	got := roundTrip(t, rel)
	if !equalRel(rel, got) {
		t.Fatal("round trip changed the relation")
	}
	f, err := interval.Decode(got)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Equal(xmark.Figure1Forest()) {
		t.Fatal("decoded forest differs")
	}
}

func TestRoundTripQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rel := interval.Encode(xmltree.RandomForest(rng, 20))
		return equalRel(rel, roundTrip(t, rel))
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestRoundTripMultiDigitKeys(t *testing.T) {
	rel := &interval.Relation{Tuples: []interval.Tuple{
		{S: "<a>", L: interval.Key{0, 5, 2}, R: interval.Key{0, 5, 9}},
		{S: "txt", L: interval.Key{1}, R: interval.Key{2}},
		{S: "", L: nil, R: interval.Key{3}}, // empty label, nil key
	}}
	got := roundTrip(t, rel)
	if !equalRel(rel, got) {
		t.Fatalf("got %v", got.Tuples)
	}
}

func TestRoundTripEmpty(t *testing.T) {
	got := roundTrip(t, &interval.Relation{})
	if got.Len() != 0 {
		t.Fatalf("got %d tuples", got.Len())
	}
}

// TestFullRoundTrip checks that WriteFull/ReadFull preserve the relation,
// rebuild the index, whose classes carry the statistics, and bind it to
// the decoded relation; WriteFull writes exactly what Write does.
func TestFullRoundTrip(t *testing.T) {
	rel := interval.Encode(xmark.Generate(xmark.Config{ScaleFactor: 0.001, Seed: 4}))
	ix := index.Build(rel)

	var full bytes.Buffer
	if err := WriteFull(&full, rel, ix, ix); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(full.Bytes(), encode(t, rel)) {
		t.Fatal("WriteFull wrote other bytes than Write")
	}
	gotRel, gotIx, gotSt, err := ReadFull(&full)
	if err != nil {
		t.Fatal(err)
	}
	if !equalRel(rel, gotRel) {
		t.Fatal("full round trip changed the relation")
	}
	if !reflect.DeepEqual(gotIx.Paths(), ix.Paths()) {
		t.Fatal("full round trip changed the dataguide")
	}
	if gotSt != gotIx {
		t.Fatal("the statistics ReadFull returns are not its index's annotations")
	}
	if !reflect.DeepEqual(gotSt, ix) {
		t.Fatal("full round trip changed the statistics")
	}
	if gotIx.Rel != gotRel {
		t.Fatal("decoded index is not bound to the decoded relation")
	}
}

// TestOldFormatsUpgrade pins the retirement of the DIXQS1, DIXQS2 and
// DIXQS3 formats, which nothing writes: a file under any of their magics
// is ErrFormat, however well formed its body, with or without a checksum.
func TestOldFormatsUpgrade(t *testing.T) {
	rel := interval.Encode(xmark.Generate(xmark.Config{ScaleFactor: 0.001, Seed: 4}))
	for _, prefix := range []string{retiredV1, retiredV2, retiredV3} {
		file := sections(t, prefix, rel)
		for _, data := range [][]byte{file, seal(file)} {
			if _, _, _, err := ReadFull(bytes.NewReader(data)); !errors.Is(err, ErrFormat) {
				t.Errorf("%q: err = %v, want ErrFormat", prefix, err)
			}
		}
	}
}

func TestSaveLoadFull(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "doc.dixq")
	rel := interval.Encode(xmark.Figure1Forest())
	if err := Save(path, rel); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !equalRel(rel, got) {
		t.Fatal("Save/Load relation mismatch")
	}
	// No temp files left behind.
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries, want 1", len(entries))
	}
}

func TestSaveIntoCurrentDir(t *testing.T) {
	// Exercise the bare-filename path (filepath.Dir returns ".").
	old, _ := os.Getwd()
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(old)
	rel := interval.Encode(xmltree.Forest{xmltree.NewText("x")})
	if err := Save("plain.dixq", rel); err != nil {
		t.Fatal(err)
	}
	if _, err := Load("plain.dixq"); err != nil {
		t.Fatal(err)
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "missing.dixq")); err == nil {
		t.Error("missing file should fail")
	}
	path := filepath.Join(t.TempDir(), "doc.dixq")
	if err := os.WriteFile(path, []byte("<site></site>"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); !errors.Is(err, ErrFormat) || !strings.Contains(err.Error(), path) {
		t.Errorf("foreign file: err = %v, want ErrFormat naming the path", err)
	}
}

func TestReadRejectsCorruption(t *testing.T) {
	rel := interval.Encode(xmark.Figure1Forest())
	valid := encode(t, rel)
	body := sections(t, magic, rel)

	cases := map[string][]byte{
		"empty":            {},
		"bad magic":        []byte("NOTDIXQ" + string(valid[7:])),
		"truncated header": valid[:3],
		"truncated labels": valid[:len(magic)+2],
		"truncated tuples": seal(body[:len(body)-4]),
		"no checksum":      body,
		"trailing garbage": append(append([]byte{}, valid...), 0x01),
		"sealed garbage":   seal(append(append([]byte{}, body...), 0x01)),
		"xml not a store":  []byte("<site></site>"),
	}
	for name, data := range cases {
		if _, _, _, err := ReadFull(bytes.NewReader(data)); !isTyped(err) {
			t.Errorf("%s: err = %v, want ErrFormat or ErrCorrupt", name, err)
		}
	}

	// Label index out of range: flip the first tuple's label index to a
	// huge varint by rebuilding a minimal file.
	var b bytes.Buffer
	b.WriteString(magic)
	b.Write([]byte{1, 1, 'x'}) // 1 label: "x"
	b.Write([]byte{1})         // 1 tuple
	b.Write([]byte{9})         // label index 9: out of range
	b.Write([]byte{1, 0})      // L = [0]
	b.Write([]byte{1, 1})      // R = [1]
	if _, _, _, err := ReadFull(bytes.NewReader(seal(b.Bytes()))); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("out-of-range label index: err = %v, want ErrCorrupt", err)
	}

	// Complete, well-formed files whose relation is not an interval
	// encoding: the loader validates the nesting, so they fail instead of
	// reaching the catalog.
	for name, tuples := range map[string][]interval.Tuple{
		"crossing intervals": {
			{S: "<a>", L: interval.Key{0}, R: interval.Key{2}},
			{S: "<b>", L: interval.Key{1}, R: interval.Key{3}},
		},
		"l >= r": {{S: "<a>", L: interval.Key{4}, R: interval.Key{4}}},
	} {
		rel := &interval.Relation{Tuples: tuples}
		if _, _, _, err := ReadFull(bytes.NewReader(encode(t, rel))); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "interval:") {
			t.Errorf("%s: err = %v, want an interval validation error", name, err)
		}
	}
}

// TestHeaderErrors pins which failures count as "not a store file": a
// short or unknown header is ErrFormat; an I/O error while reading the
// header is reported as itself, not mislabelled as a format problem.
func TestHeaderErrors(t *testing.T) {
	for name, data := range map[string]string{"empty": "", "short": "DIX", "foreign": "<site></site>"} {
		if _, _, _, err := ReadFull(bytes.NewReader([]byte(data))); !errors.Is(err, ErrFormat) {
			t.Errorf("%s header: err = %v, want ErrFormat", name, err)
		}
	}
	broken := errors.New("controller reset")
	_, _, _, err := ReadFull(iotest.ErrReader(broken))
	if !errors.Is(err, broken) || errors.Is(err, ErrFormat) {
		t.Errorf("I/O error reading the header: err = %v, want it to wrap %v and not ErrFormat", err, broken)
	}
}

func TestWriteRejectsNegativeDigits(t *testing.T) {
	rel := &interval.Relation{Tuples: []interval.Tuple{
		{S: "x", L: interval.Key{-1}, R: interval.Key{2}},
	}}
	if err := Write(&bytes.Buffer{}, rel); err == nil {
		t.Error("negative digit should fail")
	}
}

// TestFormatIsCompact checks the label dictionary: the body — the part of
// the file that replaces the XML text — must not outgrow it.
func TestFormatIsCompact(t *testing.T) {
	doc := xmark.Generate(xmark.Config{ScaleFactor: 0.002, Seed: 7})
	body := sections(t, magic, interval.Encode(doc))
	xmlLen := len(doc.String())
	if len(body) > xmlLen {
		t.Errorf("store body %d bytes > XML %d bytes; label dictionary not effective?", len(body), xmlLen)
	}
}

// failWriter fails after n bytes, exercising Write's error propagation.
type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errors.New("disk full")
	}
	if len(p) > w.n {
		n := w.n
		w.n = 0
		return n, errors.New("disk full")
	}
	w.n -= len(p)
	return len(p), nil
}

func TestWriteErrors(t *testing.T) {
	rel := interval.Encode(xmark.Figure1Forest())
	size := len(encode(t, rel))
	// Fail at various prefixes: header, label table, tuples, checksum.
	for _, budget := range []int{0, 3, 10, 50, size - 4, size - 1} {
		if err := Write(&failWriter{n: budget}, rel); err == nil && budget < size {
			t.Errorf("budget %d of %d bytes: expected write error", budget, size)
		}
	}
}

// TestSaveErrors checks the failure side of Save's atomicity: a save
// that fails leaves neither a temporary file nor a new target behind, and
// leaves a store already at the target exactly as it was.
func TestSaveErrors(t *testing.T) {
	rel := interval.Encode(xmark.Figure1Forest())
	if err := Save(filepath.Join(t.TempDir(), "no", "such", "dir", "f.dixq"), rel); err == nil {
		t.Error("Save into missing directory should fail")
	}
	bad := &interval.Relation{Tuples: []interval.Tuple{{S: "x", L: interval.Key{-1}, R: interval.Key{1}}}}
	dir := t.TempDir()
	path := filepath.Join(dir, "doc.dixq")
	if err := Save(path, bad); err == nil {
		t.Error("Save of negative-digit relation should fail")
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("failed Save left %d entries", len(entries))
	}

	if err := Save(path, rel); err != nil {
		t.Fatal(err)
	}
	if err := Save(path, bad); err == nil {
		t.Error("Save of negative-digit relation over an existing store should fail")
	}
	kept, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(kept, encode(t, rel)) {
		t.Errorf("failed Save damaged the existing store (%v)", err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Errorf("failed Save left %d entries beside the store", len(entries)-1)
	}
}

func TestImplausibleLengths(t *testing.T) {
	// A huge label count must be rejected before allocation.
	var b bytes.Buffer
	b.WriteString(magic)
	b.Write([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}) // ~2^63
	if _, _, _, err := ReadFull(bytes.NewReader(seal(b.Bytes()))); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "implausible") {
		t.Errorf("implausible label count: err = %v", err)
	}
	// A plausible label count the file cannot hold.
	var d bytes.Buffer
	d.WriteString(magic)
	d.Write([]byte{0xff, 0xff, 0xff, 0xff, 0x07}) // 2^31-1 labels
	if _, _, _, err := ReadFull(bytes.NewReader(seal(d.Bytes()))); !errors.Is(err, ErrCorrupt) {
		t.Errorf("label count beyond the file: err = %v", err)
	}
	// Implausible key length.
	var c bytes.Buffer
	c.WriteString(magic)
	c.Write([]byte{1, 1, 'x'})        // one label
	c.Write([]byte{1})                // one tuple
	c.Write([]byte{0})                // label 0
	c.Write([]byte{0xff, 0xff, 0x7f}) // key length ~2M
	if _, _, _, err := ReadFull(bytes.NewReader(seal(c.Bytes()))); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "implausible key length") {
		t.Errorf("implausible key length: err = %v", err)
	}
}

// TestFullRejectsCorruption is the loader's fault test over a stored
// XMark sf 0.002 document: every truncation and a flip of each of 64
// sampled bytes — checksum and header included — returns ErrFormat or
// ErrCorrupt, never a panic or a relation, and a DIXQS3 header is
// ErrFormat.
func TestFullRejectsCorruption(t *testing.T) {
	file := encode(t, interval.Encode(xmark.Generate(xmark.Config{ScaleFactor: 0.002, Seed: 4})))
	for cut := 0; cut < len(file); cut++ {
		if _, _, _, err := ReadFull(bytes.NewReader(file[:cut])); !isTyped(err) {
			t.Fatalf("truncation at byte %d/%d: err = %v, want ErrFormat or ErrCorrupt", cut, len(file), err)
		}
	}
	rng := rand.New(rand.NewSource(44))
	positions := []int{0, len(magic) - 1, len(magic), len(file) - 4, len(file) - 1}
	for len(positions) < 64 {
		positions = append(positions, rng.Intn(len(file)))
	}
	for _, pos := range positions {
		flipped := append([]byte(nil), file...)
		flipped[pos] ^= byte(1 + rng.Intn(255))
		if _, _, _, err := ReadFull(bytes.NewReader(flipped)); !isTyped(err) {
			t.Fatalf("flip at byte %d/%d: err = %v, want ErrFormat or ErrCorrupt", pos, len(file), err)
		}
	}
	v3 := append([]byte(retiredV3), file[len(magic):]...)
	if _, _, _, err := ReadFull(bytes.NewReader(v3)); !errors.Is(err, ErrFormat) {
		t.Fatalf("DIXQS3 header: err = %v, want ErrFormat", err)
	}
}

// TestMaxKeyLenAfterLoad: a loaded relation's memoized width equals a
// fresh scan, on a relation with keys of one to three digits.
func TestMaxKeyLenAfterLoad(t *testing.T) {
	rel := &interval.Relation{Tuples: []interval.Tuple{
		{S: "<a>", L: interval.Key{0}, R: interval.Key{9}},
		{S: "<b>", L: interval.Key{1, 5, 2}, R: interval.Key{1, 5, 3}},
		{S: "t", L: interval.Key{2, 1}, R: interval.Key{2, 2}},
	}}
	got, _, _, err := ReadFull(bytes.NewReader(encode(t, rel)))
	if err != nil {
		t.Fatal(err)
	}
	fresh := (&interval.Relation{Tuples: got.Tuples}).MaxKeyLen()
	if w := got.MaxKeyLen(); w != fresh || w != 3 {
		t.Fatalf("MaxKeyLen %d, fresh scan %d, want 3", w, fresh)
	}
}

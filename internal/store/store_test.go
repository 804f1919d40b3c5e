package store

import (
	"bufio"
	"bytes"
	"errors"
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
	"dixq/internal/stats"
	"dixq/internal/xmark"
	"dixq/internal/xmltree"
)

// encode serializes rel with freshly built index and statistics.
func encode(t testing.TB, rel *interval.Relation) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFull(&buf, rel, index.Build(rel), stats.Collect(rel)); err != nil {
		t.Fatalf("WriteFull: %v", err)
	}
	return buf.Bytes()
}

// The prefixes of the two retired formats: DIXQS1 was the body alone,
// DIXQS2 the body plus the structural index. No reader accepts them.
const (
	retiredV1 = "DIXQS1\n"
	retiredV2 = "DIXQS2\n"
)

// sections builds a file of prefix, the body and, withIndex, the
// structural index: the shape of a retired-format file, or with the
// current magic a file that stops before its later sections.
func sections(t testing.TB, prefix string, rel *interval.Relation, withIndex bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	bw.WriteString(prefix)
	if err := writeBody(bw, rel); err != nil {
		t.Fatal(err)
	}
	if withIndex {
		if err := index.Build(rel).Write(bw); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

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
// the index and the statistics, and bind the decoded index to the decoded
// relation.
func TestFullRoundTrip(t *testing.T) {
	rel := interval.Encode(xmark.Generate(xmark.Config{ScaleFactor: 0.001, Seed: 4}))
	ix := index.Build(rel)
	st := stats.Collect(rel)

	gotRel, gotIx, gotSt, err := ReadFull(bytes.NewReader(encode(t, rel)))
	if err != nil {
		t.Fatal(err)
	}
	if !equalRel(rel, gotRel) {
		t.Fatal("full round trip changed the relation")
	}
	if !reflect.DeepEqual(gotIx.Paths(), ix.Paths()) {
		t.Fatal("full round trip changed the dataguide")
	}
	if !reflect.DeepEqual(gotSt, st) {
		t.Fatalf("full round trip changed the statistics:\ngot  %+v\nwant %+v", gotSt, st)
	}
	if gotIx.Rel != gotRel {
		t.Fatal("decoded index is not bound to the decoded relation")
	}
}

// TestOldFormatsUpgrade pins the retirement of the DIXQS1 and DIXQS2
// formats, which nothing writes: a file under either magic is ErrFormat,
// however well formed its body.
func TestOldFormatsUpgrade(t *testing.T) {
	rel := interval.Encode(xmark.Generate(xmark.Config{ScaleFactor: 0.001, Seed: 4}))
	for prefix, file := range map[string][]byte{
		retiredV1: sections(t, retiredV1, rel, false),
		retiredV2: sections(t, retiredV2, rel, true),
	} {
		if _, _, _, err := ReadFull(bytes.NewReader(file)); !errors.Is(err, ErrFormat) {
			t.Errorf("%q: err = %v, want ErrFormat", prefix, err)
		}
	}
}

func TestSaveLoadFull(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "doc.dixq")
	rel := interval.Encode(xmark.Figure1Forest())
	ix := index.Build(rel)
	st := stats.Collect(rel)
	if err := SaveFull(path, rel, ix, st); err != nil {
		t.Fatal(err)
	}
	got, gotIx, gotSt, err := LoadFull(path)
	if err != nil {
		t.Fatal(err)
	}
	if !equalRel(rel, got) || gotIx == nil || gotIx.Rel != got {
		t.Fatal("SaveFull/LoadFull relation or index mismatch")
	}
	if !reflect.DeepEqual(gotSt, st) {
		t.Fatal("SaveFull/LoadFull statistics mismatch")
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
	if err := SaveFull("plain.dixq", rel, index.Build(rel), stats.Collect(rel)); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := LoadFull("plain.dixq"); err != nil {
		t.Fatal(err)
	}
}

func TestLoadErrors(t *testing.T) {
	if _, _, _, err := LoadFull(filepath.Join(t.TempDir(), "missing.dixq")); err == nil {
		t.Error("missing file should fail")
	}
}

func TestReadRejectsCorruption(t *testing.T) {
	rel := interval.Encode(xmark.Figure1Forest())
	valid := encode(t, rel)
	body := sections(t, magic, rel, false)

	cases := map[string][]byte{
		"empty":            {},
		"bad magic":        []byte("NOTDIXQ" + string(valid[7:])),
		"truncated header": valid[:3],
		"truncated labels": valid[:len(magic)+2],
		"truncated tuples": body[:len(body)-4],
		"trailing garbage": append(append([]byte{}, valid...), 0x01),
		"xml not a store":  []byte("<site></site>"),
	}
	for name, data := range cases {
		if _, _, _, err := ReadFull(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: expected error", name)
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
	if _, _, _, err := ReadFull(&b); err == nil {
		t.Error("out-of-range label index: expected error")
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
		if _, _, _, err := ReadFull(bytes.NewReader(encode(t, rel))); err == nil || !strings.Contains(err.Error(), "interval:") {
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
	if err := WriteFull(&bytes.Buffer{}, rel, nil, nil); err == nil {
		t.Error("negative digit should fail")
	}
}

// TestFormatIsCompact checks the label dictionary: the body — the part of
// the file that replaces the XML text — must not outgrow it.
func TestFormatIsCompact(t *testing.T) {
	doc := xmark.Generate(xmark.Config{ScaleFactor: 0.002, Seed: 7})
	body := sections(t, magic, interval.Encode(doc), false)
	xmlLen := len(doc.String())
	if len(body) > xmlLen {
		t.Errorf("store body %d bytes > XML %d bytes; label dictionary not effective?", len(body), xmlLen)
	}
}

// failWriter fails after n bytes, exercising WriteFull's error propagation.
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
	ix, st := index.Build(rel), stats.Collect(rel)
	size := len(encode(t, rel))
	// Fail at various prefixes: header, label table, tuples, index, stats.
	for _, budget := range []int{0, 3, 10, 50, 400, size - 1} {
		if err := WriteFull(&failWriter{n: budget}, rel, ix, st); err == nil && budget < size {
			t.Errorf("budget %d of %d bytes: expected write error", budget, size)
		}
	}
}

// TestSaveErrors checks the failure side of SaveFull's atomicity: a save
// that fails leaves neither a temporary file nor a new target behind, and
// leaves a store already at the target exactly as it was.
func TestSaveErrors(t *testing.T) {
	rel := interval.Encode(xmark.Figure1Forest())
	ix, st := index.Build(rel), stats.Collect(rel)
	if err := SaveFull(filepath.Join(t.TempDir(), "no", "such", "dir", "f.dixq"), rel, ix, st); err == nil {
		t.Error("SaveFull into missing directory should fail")
	}
	bad := &interval.Relation{Tuples: []interval.Tuple{{S: "x", L: interval.Key{-1}, R: interval.Key{1}}}}
	dir := t.TempDir()
	path := filepath.Join(dir, "doc.dixq")
	if err := SaveFull(path, bad, nil, nil); err == nil {
		t.Error("SaveFull of negative-digit relation should fail")
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("failed SaveFull left %d entries", len(entries))
	}

	if err := SaveFull(path, rel, ix, st); err != nil {
		t.Fatal(err)
	}
	if err := SaveFull(path, bad, nil, nil); err == nil {
		t.Error("SaveFull of negative-digit relation over an existing store should fail")
	}
	kept, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(kept, encode(t, rel)) {
		t.Errorf("failed SaveFull damaged the existing store (%v)", err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Errorf("failed SaveFull left %d entries beside the store", len(entries)-1)
	}
}

func TestImplausibleLengths(t *testing.T) {
	// A huge label count must be rejected before allocation.
	var b bytes.Buffer
	b.WriteString(magic)
	b.Write([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}) // ~2^63
	if _, _, _, err := ReadFull(&b); err == nil {
		t.Error("implausible label count accepted")
	}
	// Implausible key length.
	var c bytes.Buffer
	c.WriteString(magic)
	c.Write([]byte{1, 1, 'x'})        // one label
	c.Write([]byte{1})                // one tuple
	c.Write([]byte{0})                // label 0
	c.Write([]byte{0xff, 0xff, 0x7f}) // key length ~2M
	if _, _, _, err := ReadFull(&c); err == nil {
		t.Error("implausible key length accepted")
	}
}

// TestFullRejectsCorruption truncates and mangles the stats section of a
// file at every byte offset past the index: every cut must fail loudly,
// never decode to wrong statistics silently.
func TestFullRejectsCorruption(t *testing.T) {
	rel := interval.Encode(xmark.Figure1Forest())
	fullBytes := encode(t, rel)
	// The stats section occupies everything past the body and index.
	statsStart := len(sections(t, magic, rel, true))
	if statsStart >= len(fullBytes) {
		t.Fatalf("no stats section: full %d bytes, indexed %d", len(fullBytes), statsStart)
	}

	for cut := statsStart; cut < len(fullBytes); cut++ {
		if _, _, _, err := ReadFull(bytes.NewReader(fullBytes[:cut])); err == nil {
			t.Fatalf("truncation at byte %d/%d decoded without error", cut, len(fullBytes))
		}
	}

	// An implausible length inside the stats section.
	mangled := append([]byte{}, fullBytes[:statsStart]...)
	mangled = append(mangled, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f)
	if _, _, _, err := ReadFull(bytes.NewReader(mangled)); err == nil {
		t.Fatal("implausible stats length decoded without error")
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

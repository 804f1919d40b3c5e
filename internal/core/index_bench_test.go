package core

import (
	"testing"

	"dixq/internal/index"
	"dixq/internal/xmark"
	"dixq/internal/xq"
)

// benchmarkIndexPath measures one benchmark query on the DI-MSJ path with
// the scan-backed and index-backed access paths side by side.
func benchmarkIndexPath(b *testing.B, query string) {
	cat, _ := generatedCatalog(0.01, 7)
	q := Compile(xq.MustParse(query), Options{})
	variants := []struct {
		name string
		opts Options
	}{
		{"access=scan", Options{ForceJoinMode: ModeMSJ}},
		{"access=index", Options{ForceJoinMode: ModeMSJ, Indexes: index.BuildSet(cat)}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := q.Eval(cat, v.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkIndexPathQ8(b *testing.B)  { benchmarkIndexPath(b, xmark.Q8) }
func BenchmarkIndexPathQ9(b *testing.B)  { benchmarkIndexPath(b, xmark.Q9) }
func BenchmarkIndexPathQ13(b *testing.B) { benchmarkIndexPath(b, xmark.Q13) }

// The descendant-axis queries: with indexes, select(x, subtrees-dfs(F))
// is one descendant seek instead of every subtree of F.
func BenchmarkIndexPathQ6(b *testing.B)  { benchmarkIndexPath(b, xmark.Q6) }
func BenchmarkIndexPathQ7(b *testing.B)  { benchmarkIndexPath(b, xmark.Q7) }
func BenchmarkIndexPathQ14(b *testing.B) { benchmarkIndexPath(b, xmark.Q14) }
func BenchmarkIndexPathQ19(b *testing.B) { benchmarkIndexPath(b, xmark.Q19) }

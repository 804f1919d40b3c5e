package core

import (
	"fmt"
	"testing"

	"dixq/internal/exec"
	"dixq/internal/xmark"
	"dixq/internal/xq"
)

// benchmarkParallel measures one benchmark query on the DI-MSJ path at
// several worker bounds. The process worker budget is raised to the
// tested bound for each sub-benchmark, so the curve measures the runtime
// rather than a depleted budget (on machines with fewer cores than
// workers the extra points show coordination overhead, which is the
// honest number).
func benchmarkParallel(b *testing.B, query string) {
	cat, _ := generatedCatalog(0.01, 7)
	q := Compile(xq.MustParse(query), Options{})
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			prev := exec.SetLimit(workers)
			defer exec.SetLimit(prev)
			opts := Options{ForceJoinMode: ModeMSJ, Parallelism: workers}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := q.Eval(cat, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkParallelQ8(b *testing.B) { benchmarkParallel(b, xmark.Q8) }
func BenchmarkParallelQ9(b *testing.B) { benchmarkParallel(b, xmark.Q9) }

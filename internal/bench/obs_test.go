package bench

import (
	"context"
	"testing"

	"dixq"
	"dixq/internal/obs"
	"dixq/internal/xmark"
)

// BenchmarkObsOverhead measures the cost of the always-on observability
// counters on the hot DI-MSJ path: each query runs once with the obs
// layer recording (the production configuration) and once with it gated
// off, which turns every counter update into a single atomic load. The
// contract the obs package promises — and what this benchmark exists to
// police — is that enabled-vs-disabled ns/op stay within ~2% of each
// other, i.e. metrics are cheap enough to never be worth switching off.
//
// Compare with:
//
//	go test ./internal/bench/ -run - -bench ObsOverhead -count 5
//
// and feed the two series to benchstat (or eyeball the ratio; the
// per-run scheduler noise at this scale is larger than the effect).
func BenchmarkObsOverhead(b *testing.B) {
	doc := dixq.GenerateXMark(0.002, 1)
	queries := []struct{ name, text string }{
		{"Q8", xmark.Q8},
		{"Q9", xmark.Q9},
		{"Q13", xmark.Q13},
	}
	for _, q := range queries {
		w, err := NewWorkload(q.text, doc)
		if err != nil {
			b.Fatal(err)
		}
		for _, variant := range []struct {
			name    string
			enabled bool
		}{{"obs=on", true}, {"obs=off", false}} {
			b.Run(q.name+"/"+variant.name, func(b *testing.B) {
				obs.SetEnabled(variant.enabled)
				defer obs.SetEnabled(true)
				opts := &dixq.Options{Engine: dixq.MergeJoin}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := w.q.Run(context.Background(), w.cat, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

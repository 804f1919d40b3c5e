package main

import (
	"math"
	"sort"
	"time"
)

// segments is the number of equal parts (of whole rounds) the measured
// window is cut into; every end-to-end metric is computed per segment and
// reported as the median over segments, which sheds a slow stretch (a
// scheduler hiccup, one long GC) that a whole-window mean would absorb.
const segments = 5

// metric is one named value with its unit, as printed.
type metric struct {
	name  string
	unit  string
	value float64
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile is the nearest-rank quantile of v (0 for an empty slice); it
// sorts a copy.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if q == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// geomean is the geometric mean of the positive values of v (0 if none).
func geomean(v []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range v {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// latenciesByClass groups the latencies (ms) of the OK samples by class.
func latenciesByClass(sets ...[]sample) map[string][]float64 {
	by := map[string][]float64{}
	for _, set := range sets {
		for _, s := range set {
			if s.ok {
				by[s.class] = append(by[s.class], ms(s.latency()))
			}
		}
	}
	return by
}

// classP50 is the geometric mean over classes of the per-class median
// latency in ms of the OK samples.
func classP50(samples []sample) float64 {
	var meds []float64
	for _, lats := range latenciesByClass(samples) {
		meds = append(meds, median(lats))
	}
	return geomean(meds)
}

// segment is the slice of a window between two round boundaries.
type segment struct {
	from, to boundary
	reads    []sample
	writes   []sample
}

// split cuts a window into its segments of whole rounds; a write belongs
// to the segment it finished in.
func (w *window) split() []segment {
	n := w.rounds()
	out := make([]segment, 0, segments)
	for i := 0; i < segments; i++ {
		seg := segment{from: w.bounds[i*n/segments], to: w.bounds[(i+1)*n/segments]}
		seg.reads = w.reads[seg.from.ops:seg.to.ops]
		for _, s := range w.writes {
			if s.end > seg.from.t && s.end <= seg.to.t {
				seg.writes = append(seg.writes, s)
			}
		}
		out = append(out, seg)
	}
	return out
}

func countOK(samples []sample) int {
	n := 0
	for _, s := range samples {
		if s.ok {
			n++
		}
	}
	return n
}

// endToEnd holds the per-segment values behind the reported medians.
type endToEnd struct {
	queryP50, writeP50, opsPerS, cpuPerOp, allocPerOp []float64
}

func (w *window) endToEnd() endToEnd {
	var e endToEnd
	for _, seg := range w.split() {
		ops := float64(countOK(seg.reads) + countOK(seg.writes))
		wall := (seg.to.t - seg.from.t).Seconds()
		e.queryP50 = append(e.queryP50, classP50(seg.reads))
		if len(seg.writes) > 0 {
			e.writeP50 = append(e.writeP50, classP50(seg.writes))
		}
		if ops == 0 || wall <= 0 {
			continue
		}
		e.opsPerS = append(e.opsPerS, ops/wall)
		e.cpuPerOp = append(e.cpuPerOp, ms(seg.to.cpu-seg.from.cpu)/ops)
		e.allocPerOp = append(e.allocPerOp, float64(seg.to.alloc-seg.from.alloc)/(1<<20)/ops)
	}
	return e
}

// spread is (max-min)/median of v, the run-internal steadiness figure.
func spread(v []float64) float64 {
	m := median(v)
	if len(v) == 0 || m == 0 {
		return 0
	}
	lo, hi := v[0], v[0]
	for _, x := range v {
		lo, hi = min(lo, x), max(hi, x)
	}
	return (hi - lo) / m
}

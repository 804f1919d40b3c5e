// Command benchmark is the repository's one benchmark: four closed-loop
// workloads driven through the real HTTP entry point of an in-process
// dixq server, seven end-to-end metrics from an untraced timed run, and
// per-layer attribution from a separate traced run. README.md in this
// directory is the reference; BENCHMARK.json at the repository root is the
// contract the numbers are gated by.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// watchdog bounds a run's lifetime: a hang must not leave the process
// behind, and the driver allows a run 180 s.
const watchdog = 170 * time.Second

// options are the command-line knobs of one run.
type options struct {
	seed     int64
	seconds  float64
	traceOut string
}

// report is what one run found; correct is set by run() once every
// end-of-run check has passed.
type report struct {
	correct   bool
	attempted int
	failed    int
	// metrics are the gated (or, traced, the per-layer) values; notes are
	// printed but not part of the result line.
	metrics []metric
	notes   []metric
}

func main() {
	var (
		o         options
		name      = flag.String("workload", "", "workload to run: paths, joins, spill or mixed-rw")
		trace     = flag.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
		selfcheck = flag.Int("selfcheck", 0, "run every workload (or the -workload named) N times, seeds 1..N, and print the noise table")
	)
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated documents and the operation order")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the measured window; whole rounds (at least five) run until it has passed")
	flag.StringVar(&o.traceOut, "traceout", "trace.json", "where the traced run writes its spans")
	flag.Parse()

	if *selfcheck > 0 {
		if err := runSelfcheck(*selfcheck, *name, o, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	time.AfterFunc(watchdog, func() {
		fmt.Fprintln(os.Stderr, "benchmark: watchdog: run exceeded", watchdog)
		os.Exit(3)
	})
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	rep, err := run(*w, o, *trace != 0)
	if rep != nil {
		if *trace != 0 && err == nil {
			err = checkAttribution(rep.metrics)
			rep.correct = err == nil
		}
		rep.print(os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// run executes one timed or traced run and the end-of-run checks: the
// answers verified against independent engines, the server shut down, and
// nothing the run started still alive.
func run(w workload, o options, traced bool) (*report, error) {
	baseline := runtime.NumGoroutine()
	var (
		rep *report
		err error
	)
	if traced {
		rep, err = runTraced(w, o)
	} else {
		rep, err = runTimed(w, o)
	}
	if qerr := assertQuiesced(baseline); err == nil {
		err = qerr
	}
	if rep != nil {
		rep.correct = err == nil
	}
	return rep, err
}

// The timed run sets up at least minSetups times, and up to maxSetups
// while all of them together have taken under setupBudget (mixed-rw's
// 0.2 s set-up needs the extra samples, spill's 1.2 s cannot afford them);
// setup_s is the median, and the window runs against the last.
const (
	minSetups   = 4
	maxSetups   = 9
	setupBudget = 2500 * time.Millisecond
)

// runTimed is the untraced run behind the end-to-end metrics.
func runTimed(w workload, o options) (*report, error) {
	var (
		b      *bench
		setupS []float64
	)
	for began := time.Now(); len(setupS) < minSetups || (len(setupS) < maxSetups && time.Since(began) < setupBudget); {
		if b != nil {
			if err := b.close(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		var err error
		if b, err = setup(w, o.seed, false); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	steal0, cpu0 := hostSteal()
	win := b.runWindow(o.seconds)
	wall := time.Since(win.t0).Seconds()
	steal1, cpu1 := hostSteal()
	serr := b.settle()
	retained := mb(float64(liveHeap()))
	e := win.endToEnd()
	tail := win.writes
	tailStart := time.Now()
	if !w.writer {
		// Writes alone, outside the read window and every other metric.
		tail = b.writeTail()
		e.writeP50 = []float64{classP50(tail)}
	}
	verifyStart := time.Now()
	verr := serr
	if verr == nil {
		verr = b.verify()
	}
	verifyS := time.Since(verifyStart).Seconds()
	if cerr := b.close(); verr == nil {
		verr = cerr
	}

	rep := &report{
		attempted: len(win.reads) + len(tail),
		failed:    len(win.reads) + len(tail) - countOK(win.reads) - countOK(tail),
	}
	if verr == nil {
		verr = rep.failures(win.reads, tail)
	}
	rep.metrics = []metric{
		{"setup_s", "s", median(setupS)},
		{"query_p50_ms", "ms", median(e.queryP50)},
		{"write_p50_ms", "ms", median(e.writeP50)},
		{"ops_per_s", "1/s", median(e.opsPerS)},
		{"cpu_ms_per_op", "ms", median(e.cpuPerOp)},
		{"alloc_mb_per_op", "MB", median(e.allocPerOp)},
		{"retained_heap_mb", "MB", retained},
	}
	rep.notes = append(rep.notes,
		metric{"window_s", "s", wall},
		metric{"rounds", "count", float64(win.rounds())},
		metric{"gc_cycles_per_round", "count", float64(win.bounds[win.rounds()].gc-win.bounds[0].gc) / float64(win.rounds())},
		metric{"write_tail_s", "s", verifyStart.Sub(tailStart).Seconds()},
		metric{"verify_s", "s", verifyS},
		metric{"query_p50_ms.segment_spread", "ratio", spread(e.queryP50)},
		metric{"ops_per_s.segment_spread", "ratio", spread(e.opsPerS)},
		metric{"cpu_ms_per_op.segment_spread", "ratio", spread(e.cpuPerOp)},
		metric{"process.peak_rss_mb", "MB", peakRSSMB()},
		metric{"process.gomaxprocs", "count", float64(runtime.GOMAXPROCS(0))},
		metric{"host.steal_share", "ratio", ratio(steal1-steal0, cpu1-cpu0)},
	)
	rep.notes = append(rep.notes, classNotes(latenciesByClass(win.reads, tail))...)
	return rep, verr
}

// failures turns failed operations into the run's error, quoting the
// first.
func (r *report) failures(sets ...[]sample) error {
	if r.failed == 0 {
		return nil
	}
	for _, set := range sets {
		for _, s := range set {
			if !s.ok {
				return fmt.Errorf("%d of %d operations failed; first: %s: %s", r.failed, r.attempted, s.class, s.why)
			}
		}
	}
	return fmt.Errorf("%d of %d operations failed", r.failed, r.attempted)
}

// classNotes reports per-class latency detail: the tail percentiles move
// 9-12 % between identical runs, so they are printed, not gated.
func classNotes(by map[string][]float64) []metric {
	names := make([]string, 0, len(by))
	for name := range by {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []metric
	for _, name := range names {
		v := by[name]
		out = append(out,
			metric{"client." + name + ".p50_ms", "ms", median(v)},
			metric{"client." + name + ".p90_ms", "ms", quantile(v, 0.9)},
			metric{"client." + name + ".max_ms", "ms", quantile(v, 1)},
			metric{"client." + name + ".n", "count", float64(len(v))},
		)
	}
	return out
}

// print writes every metric by name with its unit, then the result object
// as the last line.
func (r *report) print(w io.Writer) {
	for _, m := range r.notes {
		fmt.Fprintf(w, "%-36s %14.6g %s\n", m.name, m.value, m.unit)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, map[string]value{}}
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%-36s %14.6g %s\n", m.name, m.value, m.unit)
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		panic(err) // finite floats and strings always marshal
	}
	fmt.Fprintf(w, "%s\n", line)
}

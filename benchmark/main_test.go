package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// contract is the part of ../BENCHMARK.json the smoke test checks the
// program against.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", benchmarkFile))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// scriptText renders the operation script a seed fixes, through a real
// (tiny) window: the classes in the order the reader sent them, and the
// fragment the writes insert.
func scriptText(t *testing.T, w workload, seed int64) string {
	t.Helper()
	b, err := setup(w.scaled(0.002), seed, false)
	if err != nil {
		t.Fatal(err)
	}
	win := b.runWindow(0)
	if err := b.close(); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, s := range win.reads {
		sb.WriteString(s.class + " ")
	}
	return sb.String() + b.fragment
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkMetrics requires a report to carry exactly the contract's metrics,
// under their units.
func checkMetrics(t *testing.T, rep *report, want []contractMetric) map[string]float64 {
	t.Helper()
	got := map[string]metric{}
	for _, m := range rep.metrics {
		if !metricName.MatchString(m.name) {
			t.Errorf("metric name %q is outside the contract's alphabet", m.name)
		}
		if _, dup := got[m.name]; dup {
			t.Errorf("metric %s reported twice", m.name)
		}
		got[m.name] = m
	}
	values := map[string]float64{}
	for _, w := range want {
		m, ok := got[w.Name]
		if !ok {
			t.Errorf("metric %s is in %s but not reported", w.Name, benchmarkFile)
			continue
		}
		if m.unit != w.Unit {
			t.Errorf("metric %s has unit %q, %s says %q", w.Name, m.unit, benchmarkFile, w.Unit)
		}
		values[w.Name] = m.value
		delete(got, w.Name)
	}
	for name := range got {
		t.Errorf("metric %s is reported but not in %s", name, benchmarkFile)
	}
	return values
}

// TestSmoke runs every workload's timed and traced run at a tiny scale and
// checks what does not depend on the scale: the metric set, the seeded
// script, the workloads' discriminating counters, and the shutdown
// assertions (run fails if a goroutine or exec worker outlives it).
func TestSmoke(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("%s names %d workloads, the program has %d", benchmarkFile, len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in %s, %q in the program", i, c.Workloads[i].Name, benchmarkFile, w.name)
		}
		w := w
		t.Run(w.name, func(t *testing.T) {
			first := scriptText(t, w, 1)
			if again := scriptText(t, w, 1); first != again {
				t.Errorf("seed 1 gave two scripts:\n%s\n%s", first, again)
			}
			if first == scriptText(t, w, 2) {
				t.Errorf("seeds 1 and 2 gave the same script: %s", first)
			}

			// seconds 0 runs the five rounds a window needs at least.
			o := options{seed: 1, traceOut: filepath.Join(t.TempDir(), "trace.json")}
			sf := 0.002
			if w.writer {
				// Long enough that the writer lands several cycles inside the
				// window, on a document whose rounds outlast a write, so that
				// reads miss the plan cache as they do at the committed scale.
				o.seconds, sf = 0.4, 0.02
			}
			if w.cfg.MemBudget > 0 {
				// Documents small enough to be quick whose merge-join sorts
				// still exceed the budget.
				sf = 0.04
			}
			w := w.scaled(sf)
			rep, err := run(w, o, false)
			if err != nil {
				t.Fatalf("timed run: %v", err)
			}
			if !rep.correct || rep.failed != 0 || rep.attempted < 1 {
				t.Errorf("timed run: correct=%v attempted=%d failed=%d", rep.correct, rep.attempted, rep.failed)
			}
			for name, v := range checkMetrics(t, rep, c.EndToEnd) {
				if v <= 0 {
					t.Errorf("end-to-end metric %s = %g, want > 0", name, v)
				}
			}

			rep, err = run(w, o, true)
			if err != nil {
				t.Fatalf("traced run: %v", err)
			}
			if !rep.correct || rep.failed != 0 {
				t.Errorf("traced run: correct=%v failed=%d", rep.correct, rep.failed)
			}
			// The traced run itself fails unless the workload discriminates
			// (spills under a budget only, misses the plan cache beside a
			// writer only) and every operation's operators fit its execute span.
			layer := checkMetrics(t, rep, c.PerLayer)
			if spilled := layer["extsort.spilled_runs"]; (w.cfg.MemBudget > 0) != (spilled > 0) {
				t.Errorf("extsort.spilled_runs = %g on %s", spilled, w.name)
			}
			if residual, exec := layer[residualGroup], layer["plan.exec_ms"]; exec <= 0 || residual < 0 || residual >= exec {
				t.Errorf("%s = %g ms of plan.exec_ms = %g ms", residualGroup, residual, exec)
			}
			if info, err := os.Stat(o.traceOut); err != nil || info.Size() == 0 {
				t.Errorf("trace file: %v", err)
			}
		})
	}
}

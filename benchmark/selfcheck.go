package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// benchmarkFile is the contract at the repository root; selfcheck reads
// the metric bounds from it when run from there.
const benchmarkFile = "BENCHMARK.json"

// resultLine is the last line a run prints.
type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runSelfcheck measures the benchmark's own noise: every workload (or
// only the one named) runs n times on unchanged code, each run a fresh
// process of this binary with another seed (1..n, as the driver varies
// it), one after the other. It prints, per workload and end-to-end metric,
// min / median / max, the full range and the interquartile range as shares
// of the median, and the bound from BENCHMARK.json — the table committed as
// NOISE.md. The last column says which of the two rules the row meets:
// the driver's (interquartile range within the bound) and ISSUE 14's
// (twice the full range within the bound).
func runSelfcheck(n int, only string, o options, out io.Writer) error {
	if n < 5 {
		return fmt.Errorf("-selfcheck needs at least 5 runs per workload, got %d", n)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	bounds := readBounds()
	fmt.Fprintf(out, "| workload | metric | unit | min | median | max | (max-min)/median | IQR/median | bound | IQR ≤ bound / 3·IQR ≤ bound / 2·range ≤ bound |\n")
	fmt.Fprintf(out, "|---|---|---|---|---|---|---|---|---|---|\n")
	for _, w := range workloads {
		if only != "" && only != w.name {
			continue
		}
		values := map[string][]float64{}
		units := map[string]string{}
		failed := 0
		for seed := int64(1); seed <= int64(n); seed++ {
			cmd := exec.Command(self,
				"-workload", w.name,
				"-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64))
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			var res resultLine
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return fmt.Errorf("%s seed %d: result line: %w", w.name, seed, err)
			}
			failed += res.Failed
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
				units[name] = m.Unit
			}
		}
		names := make([]string, 0, len(values))
		for name := range values {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			v := values[name]
			q1, q3 := quartiles(v)
			med := median(v)
			iqr, bound, rules := (q3-q1)/med, "-", "-"
			if b, ok := bounds[name]; ok {
				bound = fmt.Sprintf("%.1f %%", 100*b)
				rules = fmt.Sprintf("%s / %s / %s", yesNo(iqr <= b), yesNo(3*iqr <= b), yesNo(2*spread(v) <= b))
			}
			fmt.Fprintf(out, "| %s | %s | %s | %.5g | %.5g | %.5g | %.2f %% | %.2f %% | %s | %s |\n",
				w.name, name, units[name], quantile(v, 0), med, quantile(v, 1),
				100*spread(v), 100*iqr, bound, rules)
		}
		fmt.Fprintf(out, "| %s | failed operations | count | | %d | | | | 0 | |\n", w.name, failed)
	}
	return nil
}

func yesNo(ok bool) string {
	if ok {
		return "yes"
	}
	return "NO"
}

// quartiles are the first and third quartile as Python's
// statistics.quantiles(v, n=4) computes them (the exclusive method), which
// is what the driver gates the spread on.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		i := int(pos)
		switch {
		case i < 1:
			return s[0]
		case i >= len(s):
			return s[len(s)-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return at(0.25), at(0.75)
}

// readBounds returns metric name → bound from BENCHMARK.json in the
// working directory (empty when it is not there).
func readBounds() map[string]float64 {
	out := map[string]float64{}
	data, err := os.ReadFile(benchmarkFile)
	if err != nil {
		return out
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if json.Unmarshal(data, &spec) != nil {
		return out
	}
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out
}

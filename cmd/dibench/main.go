// Command dibench regenerates the evaluation tables of the paper (Figures
// 8, 9, 10 and 11, plus the Section 6.2 structural-key experiment) over
// the built-in XMark-like generator.
//
// Usage:
//
//	dibench [-exp all|q13|q8|q8breakdown|q9|deepkeys]
//	        [-scales 0.001,0.01,...] [-systems interp,generic-sql,di-nlj,di-msj]
//	        [-timeout 60s] [-maxtuples N] [-metricsdump file]
//
// -systems takes engine names (any of di-msj, di-nlj, interp,
// generic-sql); an unknown name fails at startup. Engines exceeding the
// budget are reported DNF, mirroring the paper's experiment cutoffs. See
// EXPERIMENTS.md for paper-vs-measured tables.
// -metricsdump writes the process's cumulative observability counters
// (the same Prometheus exposition dixqd serves at /metrics) to a file
// after the run — bytes sorted, spill volume, merge-join pairs — so a
// benchmark sweep leaves an auditable record of what the runtime did.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"dixq"
	"dixq/internal/bench"
	"dixq/internal/cliflags"
	"dixq/internal/obs"
)

func main() {
	// The flag set lives in internal/cliflags so the root docs guard can
	// cross-check it against the docs/API.md table.
	cfg := cliflags.Dibench(flag.CommandLine, bench.Experiments)
	flag.Parse()

	if cfg.MetricsDump != "" {
		defer func() {
			if err := os.WriteFile(cfg.MetricsDump, []byte(obs.Default.Render()), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "dibench: metricsdump: %v\n", err)
			}
		}()
	}

	scales := bench.DefaultScales
	if cfg.Scales != "" {
		scales = nil
		for _, s := range strings.Split(cfg.Scales, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil || v <= 0 {
				fatal("bad scale factor %q", s)
			}
			scales = append(scales, v)
		}
	}
	engines := bench.DefaultEngines
	if cfg.Systems != "" {
		engines = nil
		for _, s := range strings.Split(cfg.Systems, ",") {
			e, err := dixq.ParseEngine(strings.TrimSpace(s))
			if err != nil {
				fatal("-systems: %v", err)
			}
			engines = append(engines, e)
		}
	}
	runCfg := bench.Config{Timeout: cfg.Timeout, MaxTuples: cfg.MaxTuples}

	experiments := bench.Experiments
	if cfg.Exp != "all" {
		experiments = strings.Split(cfg.Exp, ",")
	}
	for _, name := range experiments {
		if err := bench.Run(os.Stdout, strings.TrimSpace(name), scales, engines, runCfg); err != nil {
			fatal("%v", err)
		}
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dibench: "+format+"\n", args...)
	os.Exit(1)
}

package bench

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
	"time"

	"dixq"
	"dixq/internal/xmark"
)

func smallCfg() Config {
	return Config{Timeout: 30 * time.Second}
}

func TestWorkloadSystemsAgree(t *testing.T) {
	// Scale chosen so even the generic SQL engine finishes in seconds: its
	// nested-loop evaluation of the interval order predicates is the very
	// behaviour the paper's Section 5 operators exist to avoid.
	wl, err := NewWorkload(xmark.Q8, dixq.GenerateXMark(0.0003, 20030609))
	if err != nil {
		t.Fatal(err)
	}
	var trees []int
	for _, e := range append(DefaultEngines, dixq.CostBased) {
		out := wl.Run(e, smallCfg())
		if out.Err != nil {
			t.Fatalf("%s: %v", e, out.Err)
		}
		if out.DNF {
			t.Fatalf("%s: DNF at tiny scale", e)
		}
		trees = append(trees, out.Trees)
	}
	for _, n := range trees[1:] {
		if n != trees[0] {
			t.Fatalf("systems disagree on result size: %v", trees)
		}
	}
	if trees[0] == 0 {
		t.Fatal("Q8 result empty at sf=0.001")
	}
}

func TestDNFOnTightBudget(t *testing.T) {
	wl, err := NewWorkload(xmark.Q8, dixq.GenerateXMark(0.005, 1))
	if err != nil {
		t.Fatal(err)
	}
	out := wl.Run(dixq.NestedLoop, Config{MaxTuples: 1000})
	if !out.DNF || out.Err != nil {
		t.Fatalf("NLJ with 1000-tuple budget: DNF=%v err=%v", out.DNF, out.Err)
	}
	for _, e := range append(DefaultEngines, dixq.CostBased) {
		if out := wl.Run(e, Config{Timeout: time.Nanosecond}); !out.DNF || out.Err != nil {
			t.Errorf("%s with 1ns timeout: DNF=%v err=%v", e, out.DNF, out.Err)
		}
	}
}

func TestRunExperimentsProduceTables(t *testing.T) {
	scales := []float64{0.0002, 0.0005}
	for _, exp := range []string{ExpQ13, ExpQ8, ExpQ8Breakdown, ExpQ9} {
		var buf bytes.Buffer
		if err := Run(&buf, exp, scales, []dixq.Engine{dixq.NestedLoop, dixq.MergeJoin}, smallCfg()); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
		out := buf.String()
		if !strings.Contains(out, "di-msj") {
			t.Errorf("%s output missing engine row:\n%s", exp, out)
		}
		if strings.Contains(out, "DNF") {
			t.Errorf("%s: unexpected DNF at tiny scales:\n%s", exp, out)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := Run(&buf, "nope", DefaultScales, DefaultEngines, smallCfg()); err == nil {
		t.Fatal("unknown experiment should fail")
	}
}

func TestBreakdownSumsTo100(t *testing.T) {
	var buf bytes.Buffer
	if err := Run(&buf, ExpQ8Breakdown, []float64{0.001}, nil, smallCfg()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, sys := range []string{"di-nlj", "di-msj"} {
		sum := 0
		for _, line := range strings.Split(out, "\n") {
			if !strings.HasPrefix(line, sys) {
				continue
			}
			fields := strings.Fields(line)
			cell := strings.TrimSuffix(fields[len(fields)-1], "%")
			v, err := strconv.Atoi(cell)
			if err != nil {
				t.Fatalf("bad cell %q: %v", cell, err)
			}
			sum += v
		}
		if sum < 97 || sum > 103 {
			t.Errorf("%s breakdown sums to %d%%, want ~100%%\n%s", sys, sum, out)
		}
	}
}

func TestDeepKeyExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := Run(&buf, ExpDeepKeys, nil, nil, smallCfg()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "key nodes") {
		t.Errorf("output:\n%s", buf.String())
	}
}

func TestDeepKeyDocument(t *testing.T) {
	doc, keyNodes := DeepKeyDocument(10, 3, 2)
	if len(doc) != 1 || doc[0].Label != "<db>" {
		t.Fatalf("doc = %v", doc)
	}
	// depth 3, fanout 2: k(k(t,t),k(t,t)) = 7 nodes + <key> wrapper = 8.
	if keyNodes != 8 {
		t.Errorf("keyNodes = %d, want 8", keyNodes)
	}
	parsed, err := dixq.ParseDocument(doc.String())
	if err != nil {
		t.Fatal(err)
	}
	// Written out and parsed back, the document keeps every key node.
	if parsed.Nodes() != doc.Size() {
		t.Errorf("parsed document has %d nodes, want %d", parsed.Nodes(), doc.Size())
	}
	wl, err := NewWorkload(DeepKeyQuery, parsed)
	if err != nil {
		t.Fatal(err)
	}
	msj := wl.Run(dixq.MergeJoin, smallCfg())
	nlj := wl.Run(dixq.NestedLoop, smallCfg())
	if msj.Err != nil || nlj.Err != nil {
		t.Fatalf("errs: %v %v", msj.Err, nlj.Err)
	}
	if msj.Trees != 10 || nlj.Trees != 10 {
		t.Errorf("trees = %d/%d, want 10 (every left record matches once)", msj.Trees, nlj.Trees)
	}
}

func TestQuadraticVsLinearShape(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test runs seconds of workload")
	}
	// The paper's headline: growing the document by k grows DI-NLJ's cost
	// ~k² and DI-MSJ's ~k·log k on Q8. Compare embedded-tuple counts,
	// which are deterministic (timings on CI are not).
	small, _ := NewWorkload(xmark.Q8, dixq.GenerateXMark(0.002, 2))
	large, _ := NewWorkload(xmark.Q8, dixq.GenerateXMark(0.008, 2))
	cfg := Config{}
	nljS := small.Run(dixq.NestedLoop, cfg)
	nljL := large.Run(dixq.NestedLoop, cfg)
	msjS := small.Run(dixq.MergeJoin, cfg)
	msjL := large.Run(dixq.MergeJoin, cfg)
	for _, o := range []Outcome{nljS, nljL, msjS, msjL} {
		if o.Err != nil || o.DNF {
			t.Fatalf("run failed: %+v", o)
		}
	}
	nljGrowth := float64(nljL.Stats.EmbeddedTuples) / float64(nljS.Stats.EmbeddedTuples)
	msjGrowth := float64(msjL.Stats.EmbeddedTuples) / float64(msjS.Stats.EmbeddedTuples)
	// Scale grew 4x: NLJ embedding should grow ~16x, MSJ ~4x.
	if nljGrowth < 8 {
		t.Errorf("NLJ embedded-tuple growth = %.1fx, want quadratic (~16x)", nljGrowth)
	}
	if msjGrowth > 8 {
		t.Errorf("MSJ embedded-tuple growth = %.1fx, want linear (~4x)", msjGrowth)
	}
}

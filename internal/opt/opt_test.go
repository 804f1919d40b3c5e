package opt

import (
	"math"
	"testing"

	"dixq/internal/plan"
)

func TestAnnotateEstClamps(t *testing.T) {
	n := &plan.Node{Est: -1}
	annotateEst(n, math.NaN())
	if n.Est != 0 {
		t.Fatalf("NaN -> %d, want 0", n.Est)
	}
	annotateEst(n, -5)
	if n.Est != 0 {
		t.Fatalf("negative -> %d, want 0", n.Est)
	}
	annotateEst(n, 1e300)
	if n.Est != math.MaxInt64/2 {
		t.Fatalf("huge -> %d, want clamp", n.Est)
	}
	annotateEst(n, 41.6)
	if n.Est != 42 {
		t.Fatalf("rounding -> %d, want 42", n.Est)
	}
}

// TestOptimizeNilStats: estimation must be total — a plan estimated with
// no statistics at all still gets an estimate on every node, keeps its
// shape, and never panics.
func TestOptimizeNilStats(t *testing.T) {
	scan := &plan.Node{Op: plan.OpScan, Label: "d", Digits: 1, Est: -1}
	root := &plan.Node{Op: plan.OpPathStep, Step: plan.StepChildren, Digits: 1, Est: -1,
		Inputs: []*plan.Node{scan}}
	Optimize(root, nil)
	if len(root.Inputs) != 1 || root.Inputs[0] != scan {
		t.Fatal("Optimize changed the plan's shape")
	}
	if root.Est < 0 || scan.Est < 0 {
		t.Fatalf("no estimates without stats: root=%d scan=%d", root.Est, scan.Est)
	}
	if scan.Est != nominalDocTuples {
		t.Fatalf("scan without stats estimated %d rows, want the nominal %d", scan.Est, nominalDocTuples)
	}
}

// TestEnvsAt walks the depth/environment stack the way estMSJ recovers
// the domain's ancestor environment count.
func TestEnvsAt(t *testing.T) {
	o := &estimator{envs: []depthEnvs{{0, 1}, {1, 10}, {3, 40}}}
	for _, tc := range []struct {
		depth int
		want  float64
	}{{0, 1}, {1, 10}, {2, 10}, {3, 40}, {9, 40}} {
		if got := o.envsAt(tc.depth); got != tc.want {
			t.Fatalf("envsAt(%d) = %v, want %v", tc.depth, got, tc.want)
		}
	}
}

package opt

import (
	"math"
	"testing"

	"dixq/internal/plan"
	"dixq/internal/stats"
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

// TestDemoteShape: the in-place OpMSJ -> OpBindVar rewrite must produce
// exactly the literal translation's shape — domain, then a filter whose
// condition is the join equality over the original key subplans.
func TestDemoteShape(t *testing.T) {
	domain := &plan.Node{Op: plan.OpScan, Label: "d", Digits: 1, Est: -1}
	outer := &plan.Node{Op: plan.OpVar, Label: "x", Digits: 1, Est: -1}
	inner := &plan.Node{Op: plan.OpVar, Label: "y", Depth: 1, Digits: 1, Est: -1}
	body := &plan.Node{Op: plan.OpVar, Label: "y", Depth: 1, Digits: 1, Est: -1}
	n := &plan.Node{
		Op: plan.OpMSJ, Label: "y", Digits: 2, Est: -1,
		DomainVars: []string{"x"}, Cmp: plan.OpCmpEq,
		Inputs: []*plan.Node{domain, outer, inner, body},
	}
	demoteMSJ(n)
	if n.Op != plan.OpBindVar || len(n.Inputs) != 2 {
		t.Fatalf("demotion produced %v with %d inputs", n.Op, len(n.Inputs))
	}
	if n.DomainVars != nil {
		t.Fatal("demotion kept merge-join-only annotations")
	}
	if n.Inputs[0] != domain {
		t.Fatal("domain not preserved")
	}
	filter := n.Inputs[1]
	if filter.Op != plan.OpFilter {
		t.Fatalf("body is %v, want filter", filter.Op)
	}
	eq := filter.Inputs[0]
	if eq.Op != plan.OpCmpEq || eq.Inputs[0] != inner || eq.Inputs[1] != outer {
		t.Fatal("filter condition is not the join equality over the original keys")
	}
	if filter.Inputs[1] != body {
		t.Fatal("loop body not preserved under the filter")
	}
}

// TestDemoteThetaRestoresPredicate: a demoted theta join filters by the
// comparator it joined on, over its key sides in the original operand
// order — the inner key left of < unless the node records it on the
// right — so the nested loop evaluates exactly the query's condition.
func TestDemoteThetaRestoresPredicate(t *testing.T) {
	for _, tc := range []struct {
		cmp        plan.Op
		innerRight bool
	}{{plan.OpCmpVal, false}, {plan.OpCmpVal, true}, {plan.OpCmpLess, false}, {plan.OpCmpLess, true}} {
		outer := &plan.Node{Op: plan.OpVar, Label: "x", Digits: 1, Est: -1}
		inner := &plan.Node{Op: plan.OpVar, Label: "y", Depth: 1, Digits: 1, Est: -1}
		n := &plan.Node{
			Op: plan.OpMSJ, Label: "y", Digits: 2, Est: -1,
			DomainVars: []string{"x"}, Cmp: tc.cmp, InnerRight: tc.innerRight,
			Inputs: []*plan.Node{
				{Op: plan.OpScan, Label: "d", Digits: 1, Est: -1}, outer, inner,
				{Op: plan.OpVar, Label: "y", Depth: 1, Digits: 1, Est: -1},
			},
		}
		demoteMSJ(n)
		if n.Op != plan.OpBindVar || n.Cmp != 0 || n.InnerRight {
			t.Fatalf("%+v: demotion left %v with Cmp %v, InnerRight %v", tc, n.Op, n.Cmp, n.InnerRight)
		}
		pred := n.Inputs[1].Inputs[0]
		wantL, wantR := inner, outer
		if tc.innerRight {
			wantL, wantR = outer, inner
		}
		if pred.Op != tc.cmp || pred.Inputs[0] != wantL || pred.Inputs[1] != wantR {
			t.Fatalf("%+v: rebuilt predicate %s(%s, %s), want the recorded comparator over (%s, %s)",
				tc, pred.OpName(), pred.Inputs[0].Detail(), pred.Inputs[1].Detail(), wantL.Detail(), wantR.Detail())
		}
	}
}

// TestOptimizeNilStats: estimation must be total — a plan optimized with
// no statistics at all still gets estimates and a report, never panics.
func TestOptimizeNilStats(t *testing.T) {
	scan := &plan.Node{Op: plan.OpScan, Label: "d", Digits: 1, Est: -1}
	root := &plan.Node{Op: plan.OpPathStep, Step: plan.StepChildren, Digits: 1, Est: -1,
		Inputs: []*plan.Node{scan}}
	got, rep := Optimize(root, nil)
	if got != root || rep == nil {
		t.Fatal("Optimize lost the root or the report")
	}
	if root.Est < 0 || scan.Est < 0 {
		t.Fatalf("no estimates without stats: root=%d scan=%d", root.Est, scan.Est)
	}
	if len(rep.Graph.Vertices) != 1 {
		t.Fatalf("scan did not register as a vertex: %+v", rep.Graph)
	}
}

// TestEnvsAt walks the depth/environment stack the way estMSJ recovers
// the domain's ancestor environment count.
func TestEnvsAt(t *testing.T) {
	o := &optimizer{st: &stats.Set{}, envs: []depthEnvs{{0, 1}, {1, 10}, {3, 40}}}
	for _, tc := range []struct {
		depth int
		want  float64
	}{{0, 1}, {1, 10}, {2, 10}, {3, 40}, {9, 40}} {
		if got := o.envsAt(tc.depth); got != tc.want {
			t.Fatalf("envsAt(%d) = %v, want %v", tc.depth, got, tc.want)
		}
	}
}

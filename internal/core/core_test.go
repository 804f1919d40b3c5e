package core

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"dixq/internal/engine"
	"dixq/internal/index"
	"dixq/internal/interp"
	"dixq/internal/interval"
	"dixq/internal/plan"
	"dixq/internal/update"
	"dixq/internal/xmark"
	"dixq/internal/xmltree"
	"dixq/internal/xq"
)

func figureCatalog() (Catalog, interp.Catalog) {
	doc := xmark.Figure1Forest()
	return EncodeCatalog(map[string]xmltree.Forest{"auction.xml": doc}),
		interp.Catalog{"auction.xml": doc}
}

func generatedCatalog(sf float64, seed int64) (Catalog, interp.Catalog) {
	doc := xmark.Generate(xmark.Config{ScaleFactor: sf, Seed: seed})
	return EncodeCatalog(map[string]xmltree.Forest{"auction.xml": doc}),
		interp.Catalog{"auction.xml": doc}
}

// runBoth evaluates a query in both plan modes and checks that the result
// relations are identical tuple-for-tuple (not merely equal after
// decoding) — the modes must differ only algorithmically.
func runBoth(t *testing.T, query string, cat Catalog) xmltree.Forest {
	t.Helper()
	e, err := xq.Parse(query)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	q := Compile(e, Options{})
	msjStats := &Stats{}
	msjRel, err := q.Eval(cat, Options{ForceJoinMode: ModeMSJ, Stats: msjStats})
	if err != nil {
		t.Fatalf("MSJ eval: %v", err)
	}
	nljRel, err := q.Eval(cat, Options{ForceJoinMode: ModeNLJ})
	if err != nil {
		t.Fatalf("NLJ eval: %v", err)
	}
	if len(msjRel.Tuples) != len(nljRel.Tuples) {
		t.Fatalf("MSJ %d tuples, NLJ %d tuples", len(msjRel.Tuples), len(nljRel.Tuples))
	}
	for i := range msjRel.Tuples {
		a, b := msjRel.Tuples[i], nljRel.Tuples[i]
		if a.S != b.S || !a.L.Equal(b.L) || !a.R.Equal(b.R) {
			t.Fatalf("tuple %d differs: MSJ %s, NLJ %s", i, a, b)
		}
	}
	f, err := q.EvalForest(cat, Options{ForceJoinMode: ModeMSJ})
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return f
}

func TestQ8BothModesOnFigure1(t *testing.T) {
	cat, _ := figureCatalog()
	f := runBoth(t, xmark.Q8, cat)
	if got := f.String(); got != `<item person="Cong Rosca">1</item>` {
		t.Errorf("Q8 = %s", got)
	}
}

func TestQ8UsesMergeJoinInMSJMode(t *testing.T) {
	cat, _ := figureCatalog()
	e := xq.MustParse(xmark.Q8)
	q := Compile(e, Options{})
	stats := &Stats{}
	if _, err := q.Eval(cat, Options{ForceJoinMode: ModeMSJ, Stats: stats}); err != nil {
		t.Fatal(err)
	}
	if stats.MergeJoins != 1 {
		t.Errorf("MergeJoins = %d, want 1", stats.MergeJoins)
	}
	// The outer person loop stays a (non-join) nested loop.
	if stats.NestedLoops != 1 {
		t.Errorf("NestedLoops = %d, want 1", stats.NestedLoops)
	}

	nlj := &Stats{}
	if _, err := q.Eval(cat, Options{ForceJoinMode: ModeNLJ, Stats: nlj}); err != nil {
		t.Fatal(err)
	}
	if nlj.MergeJoins != 0 || nlj.NestedLoops != 2 {
		t.Errorf("NLJ stats = %+v", nlj)
	}
	if nlj.EmbeddedTuples <= stats.EmbeddedTuples {
		t.Errorf("NLJ embedded %d tuples, MSJ %d — NLJ should embed more",
			nlj.EmbeddedTuples, stats.EmbeddedTuples)
	}
}

func TestQ9UsesTwoMergeJoins(t *testing.T) {
	cat, _ := generatedCatalog(0.001, 3)
	e := xq.MustParse(xmark.Q9)
	q := Compile(e, Options{})
	stats := &Stats{}
	if _, err := q.Eval(cat, Options{ForceJoinMode: ModeMSJ, Stats: stats}); err != nil {
		t.Fatal(err)
	}
	if stats.MergeJoins != 2 {
		t.Errorf("MergeJoins = %d, want 2 (buyer join and item join)", stats.MergeJoins)
	}
}

// The benchmark-queries-vs-interpreter differential moved to
// internal/difftest (TestEnginesAgreeOnCorpus runs Q8/Q9/Q13 against the
// interpreter over the same generated document, among every other
// variant).

func TestQ13OnGenerated(t *testing.T) {
	cat, icat := generatedCatalog(0.001, 5)
	got := runBoth(t, xmark.Q13, cat)
	want, err := interp.Run(xmark.Q13, icat)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || !got.Equal(want) {
		t.Errorf("Q13 mismatch: got %d trees, want %d", len(got), len(want))
	}
	for _, item := range got {
		if item.Label != "<item>" || item.Children[0].Label != "@name" {
			t.Fatalf("Q13 result tree malformed: %s", item.String())
		}
	}
}

// TestDifferentialRandomQueries runs random core expressions through the
// interpreter and both DI plan modes; all three must agree.
func TestDifferentialRandomQueries(t *testing.T) {
	const trials = 400
	rng := rand.New(rand.NewSource(20030609)) // SIGMOD 2003 :-)
	docNames := []string{"d1", "d2"}
	for trial := 0; trial < trials; trial++ {
		docs := map[string]xmltree.Forest{}
		for _, n := range docNames {
			docs[n] = xmltree.RandomForest(rng, 10)
		}
		cat := EncodeCatalog(docs)
		icat := interp.Catalog(docs)
		e := xq.RandomExpr(rng, docNames, 4)
		want, err := interp.Eval(e, nil, icat)
		if err != nil {
			t.Fatalf("trial %d: interp error on %s: %v", trial, e, err)
		}
		for _, mode := range []Mode{ModeMSJ, ModeNLJ} {
			q := Compile(e, Options{})
			got, err := q.EvalForest(cat, Options{ForceJoinMode: mode})
			if err != nil {
				t.Fatalf("trial %d (%s): eval error on %s: %v", trial, mode, e, err)
			}
			if !got.Equal(want) {
				t.Fatalf("trial %d (%s): mismatch on %s\n got %s\nwant %s",
					trial, mode, e, got.String(), want.String())
			}
		}
		// The literal translation (no rewrites, nested loops) must agree
		// too.
		q := Compile(e, Options{NoRewrites: true})
		got, err := q.EvalForest(cat, Options{ForceJoinMode: ModeNLJ})
		if err != nil {
			t.Fatalf("trial %d (literal): %v", trial, err)
		}
		if !got.Equal(want) {
			t.Fatalf("trial %d (literal): mismatch on %s", trial, e)
		}
	}
}

func TestRewritesPreserveQ8Shape(t *testing.T) {
	e := xq.MustParse(xmark.Q8)
	r := Compile(e, Options{}).Expr
	// Hoisting must produce top-level lets for the two document paths,
	// dedupated to... Q8 uses two distinct paths (persons, auctions).
	l1, ok := r.(xq.Let)
	if !ok {
		t.Fatalf("rewritten Q8 top = %T, want Let", r)
	}
	if _, ok := l1.Body.(xq.Let); !ok {
		t.Fatalf("rewritten Q8 should hoist two paths, second level = %T", l1.Body)
	}
}

func TestHoistDeduplicates(t *testing.T) {
	e := xq.MustParse(`for $x in document("d")/a return for $y in document("d")/a return ($x, $y)`)
	r := HoistInvariants(e)
	lets := 0
	for {
		l, ok := r.(xq.Let)
		if !ok {
			break
		}
		lets++
		r = l.Body
	}
	if lets != 1 {
		t.Errorf("hoisted %d lets, want 1 (identical paths shared)", lets)
	}
}

func TestPullUpThroughLet(t *testing.T) {
	e := xq.MustParse(`for $x in document("d")/a return
		for $y in document("d")/b
		let $z := $y/c
		where $x = $y and $z
		return $z`)
	r := PullUpJoinPredicates(e)
	inner := r.(xq.For).Body.(xq.For)
	w, ok := inner.Body.(xq.Where)
	if !ok {
		t.Fatalf("inner body = %T, want Where (pulled-up predicate)", inner.Body)
	}
	if _, ok := w.Cond.(xq.Equal); !ok {
		t.Fatalf("pulled-up cond = %T, want Equal", w.Cond)
	}
	if _, ok := w.Body.(xq.Let); !ok {
		t.Fatalf("let should remain under the pulled-up where, got %T", w.Body)
	}
}

func TestBudgetAbortsNLJ(t *testing.T) {
	cat, _ := generatedCatalog(0.01, 1)
	e := xq.MustParse(xmark.Q8)
	q := Compile(e, Options{})
	_, err := q.Eval(cat, Options{ForceJoinMode: ModeNLJ, MaxTuples: 10_000})
	if !errors.Is(err, engine.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want budget exceeded", err)
	}
	// MSJ evaluates the same query within the same budget.
	if _, err := q.Eval(cat, Options{ForceJoinMode: ModeMSJ, MaxTuples: 10_000}); err != nil {
		t.Fatalf("MSJ within budget failed: %v", err)
	}
}

func TestEvalErrors(t *testing.T) {
	cat, _ := figureCatalog()
	bad := map[string]xq.Expr{
		"unbound var":      xq.Var{Name: "nope"},
		"unknown doc":      xq.Doc{Name: "missing"},
		"unknown fn":       xq.Call{Fn: "bogus"},
		"unknown under or": xq.Where{Cond: xq.Or{L: xq.Empty{E: xq.Var{Name: "nope"}}, R: xq.Empty{E: xq.Const{}}}, Body: xq.Const{}},
	}
	for name, e := range bad {
		for _, mode := range []Mode{ModeMSJ, ModeNLJ} {
			if _, err := Compile(e, Options{}).Eval(cat, Options{ForceJoinMode: mode}); err == nil {
				t.Errorf("%s (%s): expected error", name, mode)
			}
		}
	}
}

func TestStatsPhases(t *testing.T) {
	cat, _ := generatedCatalog(0.002, 8)
	e := xq.MustParse(xmark.Q8)
	q := Compile(e, Options{})
	stats := &Stats{}
	if _, err := q.Eval(cat, Options{ForceJoinMode: ModeMSJ, Stats: stats}); err != nil {
		t.Fatal(err)
	}
	if stats.Paths <= 0 || stats.Join <= 0 || stats.Construction <= 0 {
		t.Errorf("phase stats not collected: %+v", stats)
	}
	if stats.Total() != stats.Paths+stats.Join+stats.Construction {
		t.Errorf("Total inconsistent")
	}
}

func TestModeString(t *testing.T) {
	if ModeMSJ.String() != "DI-MSJ" || ModeNLJ.String() != "DI-NLJ" || Mode(9).String() != "invalid" {
		t.Error("Mode.String wrong")
	}
}

func TestRunConvenience(t *testing.T) {
	cat, _ := figureCatalog()
	f, err := Run(`document("auction.xml")/site/people/person/name/text()`, cat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := interval.XML(f); got != "Jaak TempestiCong Rosca" {
		t.Errorf("Run = %q", got)
	}
	if _, err := Run(`$$$`, cat, Options{}); err == nil {
		t.Error("Run should surface parse errors")
	}
}

func TestOrderByAcrossEngines(t *testing.T) {
	cat, icat := generatedCatalog(0.002, 6)
	query := `for $i in document("auction.xml")/site/regions/europe/item
	          order by $i/name
	          return $i/name/text()`
	want, err := interp.Run(query, icat)
	if err != nil {
		t.Fatal(err)
	}
	got := runBoth(t, query, cat)
	if !got.Equal(want) {
		t.Fatalf("order by mismatch:\n got %s\nwant %s", got.String(), want.String())
	}
	if len(want) == 0 {
		t.Fatal("degenerate workload (empty result)")
	}
	// Descending order through the same linear ordby desugar.
	desc := `for $i in document("auction.xml")/site/regions/europe/item
	         order by $i/name descending
	         return $i/name/text()`
	wantDesc, err := interp.Run(desc, icat)
	if err != nil {
		t.Fatal(err)
	}
	gotDesc := runBoth(t, desc, cat)
	if !gotDesc.Equal(wantDesc) {
		t.Fatalf("descending order by mismatch:\n got %s\nwant %s", gotDesc.String(), wantDesc.String())
	}
}

func TestExtendedXMarkQueries(t *testing.T) {
	cat, icat := generatedCatalog(0.002, 12)
	for name, query := range map[string]string{
		"Q1": xmark.Q1, "Q2": xmark.Q2, "Q6": xmark.Q6, "Q7": xmark.Q7, "Q17": xmark.Q17,
	} {
		want, err := interp.Run(query, icat)
		if err != nil {
			t.Fatalf("%s interp: %v", name, err)
		}
		got := runBoth(t, query, cat)
		if !got.Equal(want) {
			t.Errorf("%s: DI result differs from interpreter\n got %s\nwant %s",
				name, got.String(), want.String())
		}
		if len(want) == 0 {
			t.Errorf("%s: degenerate workload (empty result)", name)
		}
	}
}

func TestIfAndQuantifiersAcrossEngines(t *testing.T) {
	cat, icat := generatedCatalog(0.001, 13)
	queries := []string{
		`for $p in document("auction.xml")/site/people/person
		 return if ($p/homepage) then <hp>{$p/homepage/text()}</hp> else <nohp name="{$p/name/text()}"/>`,
		`for $t in document("auction.xml")/site/closed_auctions/closed_auction
		 where some $p in document("auction.xml")/site/people/person
		       satisfies $p/@id = $t/buyer/@person and $p/homepage
		 return $t/price/text()`,
		`count(for $p in document("auction.xml")/site/people/person
		 where every $q in $p/homepage satisfies $q/text() != ""
		 return $p)`,
	}
	for _, query := range queries {
		want, err := interp.Run(query, icat)
		if err != nil {
			t.Fatalf("interp: %v\n%s", err, query)
		}
		got := runBoth(t, query, cat)
		if !got.Equal(want) {
			t.Errorf("mismatch on:\n%s\n got %s\nwant %s", query, got.String(), want.String())
		}
	}
}

// TestPipelineFusionMatchesMaterialized checks the fused path chains of
// the join and reconstruction queries against the interpreter, which
// materializes every step as a tree: the serial run decodes to the
// interpreter's answer, and the morsel-parallel run and the run whose
// chains filter index-seek ranges are digit-identical to the serial one.
func TestPipelineFusionMatchesMaterialized(t *testing.T) {
	forceParallelProbe(t)
	cat, icat := generatedCatalog(0.002, 21)
	indexed := index.BuildSet(cat)
	for _, query := range []string{xmark.Q8, xmark.Q9, xmark.Q13, xmark.Q1, xmark.Q17} {
		q := Compile(xq.MustParse(query), Options{})
		serial, err := q.Eval(cat, Options{ForceJoinMode: ModeMSJ, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		want, err := interp.Run(query, icat)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := interval.Decode(serial); err != nil || !got.Equal(want) {
			t.Fatalf("fused run disagrees with the interpreter (%v):\n got %d trees\nwant %d trees", err, len(got), len(want))
		}
		for _, opts := range []Options{
			{ForceJoinMode: ModeMSJ, Parallelism: 4},
			{ForceJoinMode: ModeMSJ, Parallelism: 1, Indexes: indexed},
		} {
			got, err := q.Eval(cat, opts)
			if err != nil {
				t.Fatal(err)
			}
			identicalRelations(t, fmt.Sprintf("parallelism %d, indexed %v", opts.Parallelism, opts.Indexes != nil), got, serial)
		}
	}
}

func TestQ14Contains(t *testing.T) {
	cat, icat := generatedCatalog(0.002, 14)
	want, err := interp.Run(xmark.Q14, icat)
	if err != nil {
		t.Fatal(err)
	}
	got := runBoth(t, xmark.Q14, cat)
	if !got.Equal(want) {
		t.Fatalf("Q14 mismatch: got %d trees, want %d", len(got), len(want))
	}
	if len(want) == 0 {
		t.Fatal("Q14 degenerate: no item descriptions mention the word")
	}
}

// TestRunStatsRecordJoinStrategies checks that a plain run — no analyze
// request — records per-node actuals for the environment machinery: the
// loop-entry nodes of the forced strategy were called, NLJ plans ran their
// embed-outer nodes, nothing reports a negative time, and the phase Stats
// are exactly the per-node times.
func TestRunStatsRecordJoinStrategies(t *testing.T) {
	cat, _ := generatedCatalog(0.001, 30)
	for _, mode := range []Mode{ModeMSJ, ModeNLJ} {
		q := Compile(xq.MustParse(xmark.Q8), Options{})
		st := &Stats{}
		opts := Options{ForceJoinMode: mode, Stats: st}
		if _, err := q.Eval(cat, opts); err != nil {
			t.Fatal(err)
		}
		called := map[plan.Op]int{}
		plan.Walk(q.Plan(opts), func(n *plan.Node) {
			ns := st.Run.Node(n.ID)
			if ns.Calls < 0 || ns.Time < 0 {
				t.Errorf("%s: bad stats for %s: %+v", mode, n.OpName(), ns)
			}
			called[n.Op] += ns.Calls
		})
		if mode == ModeMSJ {
			if called[plan.OpMSJ] == 0 {
				t.Errorf("MSJ run called no merge-join node: %v", called)
			}
		} else if called[plan.OpBindVar] == 0 || called[plan.OpEmbedOuter] == 0 {
			t.Errorf("NLJ run called no nested-loop or embed-outer node: %v", called)
		}
		if st.Total() != st.Run.Total() || st.Total() <= 0 {
			t.Errorf("%s: phase total %v, per-node total %v", mode, st.Total(), st.Run.Total())
		}
		if table := plan.Operators(q.Plan(opts), st.Run); len(table) != len(st.Run.Nodes) {
			t.Errorf("%s: operator table has %d rows for %d nodes", mode, len(table), len(st.Run.Nodes))
		}
	}
}

func TestPlanTree(t *testing.T) {
	q := Compile(xq.MustParse(xmark.Q8), Options{})
	msj := q.Plan(Options{ForceJoinMode: ModeMSJ}).Tree()
	if !strings.Contains(msj, "for-merge-join") {
		t.Errorf("MSJ plan missing merge join:\n%s", msj)
	}
	if !strings.Contains(msj, "[par]") || !strings.Contains(msj, `scan [document("auction.xml")]`) {
		t.Errorf("plan tree:\n%s", msj)
	}
	nlj := q.Plan(Options{ForceJoinMode: ModeNLJ}).Tree()
	if strings.Contains(nlj, "for-merge-join") {
		t.Errorf("NLJ plan should not merge join:\n%s", nlj)
	}
	if !strings.Contains(nlj, "for-nested-loop") {
		t.Errorf("NLJ plan:\n%s", nlj)
	}
	// The embedded outer variable appears in both (the correlated $p).
	if !strings.Contains(nlj, "embed-outer") {
		t.Errorf("NLJ plan missing embed-outer:\n%s", nlj)
	}
	// Digit annotations are present and the root digit count matches the
	// For nesting (Q8: person loop digits + content).
	if !strings.Contains(msj, "{digits:") {
		t.Errorf("missing digit annotations:\n%s", msj)
	}
}

func TestPlanMatchesRuntimeStrategy(t *testing.T) {
	// The static plan's strategy must agree with what the evaluator did.
	cat, _ := generatedCatalog(0.001, 44)
	queries := []string{xmark.Q8, xmark.Q9, xmark.Q13, xmark.Q17}
	for _, query := range queries {
		q := Compile(xq.MustParse(query), Options{})
		plan := q.Plan(Options{ForceJoinMode: ModeMSJ}).Tree()
		staticMJ := strings.Count(plan, "for-merge-join")
		stats := &Stats{}
		if _, err := q.Eval(cat, Options{ForceJoinMode: ModeMSJ, Stats: stats}); err != nil {
			t.Fatal(err)
		}
		if staticMJ != stats.MergeJoins {
			t.Errorf("static plan says %d merge joins, runtime did %d:\n%s", staticMJ, stats.MergeJoins, plan)
		}
	}
}

func TestQueryingUpdatedRelations(t *testing.T) {
	// Relations whose keys grew through updates must stay queryable in
	// both modes (regression: the for-loop digit arithmetic must use the
	// document's true key width, not 1).
	doc, _ := xmltree.Parse(`<db><as><rec><k>a</k></rec></as><bs><rec><k>a</k></rec></bs></db>`)
	rel := interval.Encode(doc)
	extra, _ := xmltree.Parse(`<rec><k>a</k></rec>`)
	var asL interval.Key
	for _, tp := range rel.Tuples {
		if tp.S == "<as>" {
			asL = tp.L
		}
	}
	rel2, err := update.AppendChild(rel, asL, extra)
	if err != nil {
		t.Fatal(err)
	}
	cat := Catalog{"d": rel2}
	f2, err := interval.Decode(rel2)
	if err != nil {
		t.Fatal(err)
	}
	icat := interp.Catalog{"d": f2}
	query := `for $x in document("d")/db/as/rec
	          return for $y in document("d")/db/bs/rec
	          where $x/k = $y/k return "hit"`
	want, err := interp.Run(query, icat)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{ModeMSJ, ModeNLJ} {
		got, err := Run(query, cat, Options{ForceJoinMode: mode})
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if got := interval.XML(got); got != want.String() {
			t.Fatalf("%s: got %s, want %s", mode, got, want.String())
		}
	}
}

package dixq

import (
	"errors"
	"os"
	"strings"
	"testing"
	"time"
)

func figureCatalog(t *testing.T) *Catalog {
	t.Helper()
	doc, err := ParseDocument(XMarkFigure1)
	if err != nil {
		t.Fatal(err)
	}
	cat := NewCatalog()
	cat.Add("auction.xml", doc)
	return cat
}

func TestQuickstartFlow(t *testing.T) {
	cat := figureCatalog(t)
	q, err := ParseQuery(`for $p in document("auction.xml")/site/people/person
	                      return $p/name/text()`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Run(cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.XML() != "Jaak TempestiCong Rosca" {
		t.Errorf("XML = %q", res.XML())
	}
	if res.Stats == nil || res.Elapsed <= 0 {
		t.Error("stats/elapsed not populated for DI run")
	}
}

func TestAllEnginesAgreeOnQ8(t *testing.T) {
	cat := figureCatalog(t)
	want := `<item person="Cong Rosca">1</item>`
	for _, eng := range []Engine{CostBased, MergeJoin, NestedLoop, Interpreter, GenericSQL} {
		res, err := Run(XMarkQ8, cat, &Options{Engine: eng})
		if err != nil {
			t.Fatalf("%s: %v", eng, err)
		}
		if res.XML() != want {
			t.Errorf("%s: XML = %q, want %q", eng, res.XML(), want)
		}
	}
}

func TestDocumentAccessors(t *testing.T) {
	doc, err := ParseDocument(`<a x="1"><b>t</b></a>`)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Nodes() != 5 || doc.Depth() != 3 {
		t.Errorf("Nodes = %d, Depth = %d", doc.Nodes(), doc.Depth())
	}
	if !strings.Contains(doc.IndentedXML(), "  <b>t</b>") {
		t.Errorf("IndentedXML = %q", doc.IndentedXML())
	}
	if !strings.HasPrefix(doc.Encoding(), "<a>") {
		t.Errorf("Encoding = %q", doc.Encoding())
	}
	same, _ := ParseDocument(`<a x="1"><b>t</b></a>`)
	if !doc.Equal(same) {
		t.Error("Equal failed")
	}
	if _, err := ParseDocument(`<a>`); err == nil {
		t.Error("bad XML should fail")
	}
}

func TestGenerateXMark(t *testing.T) {
	d := GenerateXMark(0.001, 7)
	if d.Nodes() < 500 {
		t.Errorf("Nodes = %d, too small", d.Nodes())
	}
	if !d.Equal(GenerateXMark(0.001, 7)) {
		t.Error("generation not deterministic")
	}
}

func TestQueryIntrospection(t *testing.T) {
	q, err := ParseQuery(XMarkQ8)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(q.Text(), "closed_auction") {
		t.Error("Text lost")
	}
	if !strings.Contains(q.Core(), "for $p in") {
		t.Errorf("Core = %q", q.Core())
	}
	if docs := q.Documents(); len(docs) != 1 || docs[0] != "auction.xml" {
		t.Errorf("Documents = %v", docs)
	}
	if !strings.Contains(q.Explain(), "merge-join candidate") {
		t.Errorf("Explain = %q", q.Explain())
	}
}

func TestSQLGeneration(t *testing.T) {
	cat := figureCatalog(t)
	q, err := ParseQuery(XMarkQ8)
	if err != nil {
		t.Fatal(err)
	}
	sql, err := q.SQL(cat)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sql, "WITH") || !strings.Contains(sql, "NOT EXISTS") {
		t.Errorf("SQL = %.80q...", sql)
	}
	// Unsupported fragment is reported as such.
	q2, err := ParseQuery(`sort(document("auction.xml"))`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q2.SQL(cat); !IsUnsupportedSQL(err) {
		t.Errorf("err = %v, want unsupported", err)
	}
}

func TestBudget(t *testing.T) {
	cat := NewCatalog()
	cat.Add("auction.xml", GenerateXMark(0.01, 1))
	_, err := Run(XMarkQ8, cat, &Options{Engine: NestedLoop, MaxTuples: 10_000})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if _, err := Run(XMarkQ8, cat, &Options{Engine: MergeJoin, MaxTuples: 10_000, Timeout: time.Minute}); err != nil {
		t.Fatalf("MSJ within budget: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	cat := figureCatalog(t)
	if _, err := Run(`$$$`, cat, nil); err == nil {
		t.Error("parse error not surfaced")
	}
	if _, err := Run(`document("missing")`, cat, nil); err == nil {
		t.Error("missing document not surfaced")
	}
	if _, err := Run(`document("auction.xml")`, cat, &Options{Engine: Engine(99)}); err == nil {
		t.Error("bad engine not surfaced")
	}
	for _, eng := range []Engine{MergeJoin, NestedLoop, Interpreter, GenericSQL, Engine(99)} {
		_ = eng.String()
	}
}

func TestWidthBound(t *testing.T) {
	cat := figureCatalog(t)
	q, err := ParseQuery(XMarkQ9)
	if err != nil {
		t.Fatal(err)
	}
	bound, digits, err := q.WidthBound(cat)
	if err != nil {
		t.Fatal(err)
	}
	if digits < 3 {
		t.Errorf("digits = %d, want >= 3 for Q9", digits)
	}
	if len(bound) < 6 {
		t.Errorf("bound = %s, suspiciously small for Q9 over Figure 1", bound)
	}
	q2, _ := ParseQuery(`$undefined`)
	if _, _, err := q2.WidthBound(cat); err == nil {
		t.Error("unbound variable should fail the analysis")
	}
}

func TestDocumentFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	doc := GenerateXMark(0.0005, 3)

	// XML path.
	xmlPath := dir + "/doc.xml"
	if err := os.WriteFile(xmlPath, []byte(doc.XML()), 0o644); err != nil {
		t.Fatal(err)
	}
	fromXML, err := LoadDocumentFile(xmlPath)
	if err != nil {
		t.Fatal(err)
	}
	if !fromXML.Equal(doc) {
		t.Error("XML file round trip mismatch")
	}

	// Encoded store path.
	encPath := dir + "/doc.dixq"
	if err := doc.SaveEncoded(encPath); err != nil {
		t.Fatal(err)
	}
	fromStore, err := LoadDocumentFile(encPath)
	if err != nil {
		t.Fatal(err)
	}
	if !fromStore.Equal(doc) {
		t.Error("store round trip mismatch")
	}

	if _, err := LoadDocumentFile(dir + "/missing.dixq"); err == nil {
		t.Error("missing store file should fail")
	}
	if _, err := LoadDocumentFile(dir + "/missing.xml"); err == nil {
		t.Error("missing xml file should fail")
	}
}

// TestResultOperators checks that a plain Run exposes the per-operator
// table: a DI run reports its merge-join node as called, with exclusive
// times that sum into the phase total; a non-DI run has no plan to report.
func TestResultOperators(t *testing.T) {
	cat := figureCatalog(t)
	// MergeJoin is forced: under the cost-based default the optimizer
	// demotes the merge joins on a document this small, and the test
	// asserts a merge-join operator row.
	res, err := Run(XMarkQ8, cat, &Options{Engine: MergeJoin})
	if err != nil {
		t.Fatal(err)
	}
	var total time.Duration
	joined := false
	for _, op := range res.Operators() {
		total += op.Time
		if strings.HasPrefix(op.Op, "for-merge-join") && op.Calls > 0 {
			joined = true
		}
	}
	if !joined {
		t.Errorf("no called merge-join row in %+v", res.Operators())
	}
	if total <= 0 || total > res.Stats.Total() {
		t.Errorf("operator times sum to %v, phase total (with result decode) %v", total, res.Stats.Total())
	}
	if res, err = Run(XMarkQ8, cat, &Options{Engine: Interpreter}); err != nil || res.Operators() != nil {
		t.Errorf("interpreter run: operators %v, err %v", res.Operators(), err)
	}
}

// TestCatalogStatsEpochs pins the two-epoch contract of the catalog:
// adding a document advances both the index and stats epochs, while
// RefreshStats advances only the stats epoch. (The epochs are the
// catalog versions at which each set last changed, so the assertions are
// monotonic rather than unit-step.)
func TestCatalogStatsEpochs(t *testing.T) {
	cat := figureCatalog(t)
	idx, st := cat.IndexEpoch(), cat.StatsEpoch()
	if st == 0 {
		t.Fatal("adding a document left the stats epoch at zero")
	}
	cat.RefreshStats()
	if cat.IndexEpoch() != idx {
		t.Errorf("RefreshStats moved the index epoch %d -> %d", idx, cat.IndexEpoch())
	}
	if cat.StatsEpoch() <= st {
		t.Errorf("RefreshStats stats epoch %d, want > %d", cat.StatsEpoch(), st)
	}
	st = cat.StatsEpoch()
	doc, err := ParseDocument(XMarkFigure1)
	if err != nil {
		t.Fatal(err)
	}
	cat.Add("other.xml", doc)
	if cat.IndexEpoch() <= idx || cat.StatsEpoch() <= st {
		t.Errorf("Add epochs = %d/%d, want > %d/%d", cat.IndexEpoch(), cat.StatsEpoch(), idx, st)
	}
	if cat.IndexEpoch() != cat.Version() || cat.StatsEpoch() != cat.Version() {
		t.Errorf("Add published version %d but epochs %d/%d", cat.Version(), cat.IndexEpoch(), cat.StatsEpoch())
	}
}

// TestOptimizerReportSurface: the cost-based engine exposes its report;
// the forced and non-DI engines return nil (they bypass the optimizer).
func TestOptimizerReportSurface(t *testing.T) {
	cat := figureCatalog(t)
	q, err := ParseQuery(XMarkQ8)
	if err != nil {
		t.Fatal(err)
	}
	rep := q.OptimizerReport(cat, nil)
	if rep == nil {
		t.Fatal("no report under the cost-based default")
	}
	if len(rep.Graph.Vertices) == 0 || len(rep.Decisions) == 0 {
		t.Fatalf("report is empty: %+v", rep)
	}
	for _, eng := range []Engine{MergeJoin, NestedLoop, Interpreter, GenericSQL} {
		if r := q.OptimizerReport(cat, &Options{Engine: eng}); r != nil {
			t.Errorf("%s: report = %+v, want nil", eng, r)
		}
	}
}

// TestStoreStatsRideAlong: a .dixq store written by SaveEncoded carries
// the document's statistics, and Catalog.Add reuses them instead of
// recollecting.
func TestStoreStatsRideAlong(t *testing.T) {
	dir := t.TempDir()
	doc := GenerateXMark(0.0005, 3)
	path := dir + "/doc.dixq"
	if err := doc.SaveEncoded(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDocumentFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.st == nil {
		t.Fatal("loaded document carries no statistics")
	}
	cat := NewCatalog()
	cat.Add("doc", loaded)
	if cat.Snapshot().st.Docs["doc"] != loaded.st {
		t.Error("Add recollected statistics instead of reusing the stored ones")
	}
	// The stored statistics match a fresh collection pass.
	fresh := NewCatalog()
	fresh.Add("doc", GenerateXMark(0.0005, 3))
	if got, want := loaded.st.Tuples, fresh.Snapshot().st.Docs["doc"].Tuples; got != want {
		t.Errorf("stored stats count %d tuples, fresh collection %d", got, want)
	}
}

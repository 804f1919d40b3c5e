package dixq

import (
	"context"
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"dixq/internal/stats"
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
	res, err := q.Run(context.Background(), cat, nil)
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
	for _, eng := range []Engine{MergeJoin, NestedLoop, Interpreter, GenericSQL} {
		res, err := Run(XMarkQ8, cat, &Options{Engine: eng})
		if err != nil {
			t.Fatalf("%s: %v", eng, err)
		}
		if res.XML() != want {
			t.Errorf("%s: XML = %q, want %q", eng, res.XML(), want)
		}
	}
}

// TestParseEngineWireNames: the empty name is the MergeJoin default, each
// engine's wire name parses back to it, and any other name — a retired
// wire name and a display name included — fails with an error listing
// the four wire names.
func TestParseEngineWireNames(t *testing.T) {
	if e, err := ParseEngine(""); err != nil || e != MergeJoin {
		t.Errorf(`ParseEngine("") = %v, %v; want MergeJoin`, e, err)
	}
	engines := []Engine{MergeJoin, NestedLoop, Interpreter, GenericSQL}
	for _, eng := range engines {
		if e, err := ParseEngine(eng.Label()); err != nil || e != eng {
			t.Errorf("ParseEngine(%q) = %v, %v; want %v", eng.Label(), e, err, eng)
		}
	}
	for _, name := range []string{"di-opt", "DI-MSJ"} {
		_, err := ParseEngine(name)
		if err == nil {
			t.Fatalf("ParseEngine(%q) accepted an unknown name", name)
		}
		for _, eng := range engines {
			if !strings.Contains(err.Error(), eng.Label()) {
				t.Errorf("ParseEngine(%q) error %q does not list %q", name, err, eng.Label())
			}
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
	// Explain renders the plan the chosen engine runs: the index seeks the
	// catalog's indexes allow, and the join strategy of its plan mode.
	cat := figureCatalog(t)
	for engine, want := range map[Engine]string{MergeJoin: "for-merge-join", NestedLoop: "for-nested-loop"} {
		tree, err := q.Explain(cat, &Options{Engine: engine})
		if err != nil || !strings.Contains(tree, want) || !strings.Contains(tree, "index-seek") {
			t.Errorf("%s: Explain = %q, %v; want %s over index seeks", engine, tree, err, want)
		}
	}
	if _, err := q.Explain(cat, &Options{Engine: Interpreter}); err == nil {
		t.Error("Explain under the interpreter: no error, want one (it runs no plan)")
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
	// The test asserts a merge-join operator row, which the MergeJoin
	// engine promises.
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

// TestCatalogStatsEpochs pins the catalog's one-epoch contract: every
// write that publishes a version — Add, Update, Reindex, Drop —
// publishes index and statistics sets whose epochs are that version, and
// every document's statistics are exactly those read off its index.
func TestCatalogStatsEpochs(t *testing.T) {
	cat := figureCatalog(t)
	check := func(what string) {
		t.Helper()
		snap := cat.Snapshot()
		if snap.idx.Epoch != snap.version || snap.st.Epoch != snap.version {
			t.Errorf("%s: epochs %d/%d, want the version %d", what, snap.idx.Epoch, snap.st.Epoch, snap.version)
		}
		if len(snap.idx.Docs) != len(snap.enc) || len(snap.st.Docs) != len(snap.enc) {
			t.Errorf("%s: %d indexes and %d statistics for %d documents", what, len(snap.idx.Docs), len(snap.st.Docs), len(snap.enc))
		}
		for name, ix := range snap.idx.Docs {
			if !reflect.DeepEqual(snap.st.Docs[name], stats.Of(ix)) {
				t.Errorf("%s: statistics of %s are not its index's", what, name)
			}
		}
	}
	check("add")
	doc, err := ParseDocument(XMarkFigure1)
	if err != nil {
		t.Fatal(err)
	}
	cat.Add("other.xml", doc)
	check("second add")
	frag, _ := ParseDocument(`<person id="p9"><name>Z</name></person>`)
	if _, err := cat.Update("other.xml", OpAppendChild, []int{0}, frag); err != nil {
		t.Fatal(err)
	}
	check("update")
	if _, rebuilt := cat.Reindex("other.xml"); rebuilt {
		t.Error("Reindex rebuilt an indexed document")
	}
	cat.Drop("auction.xml")
	check("drop")
}

// TestStoreStatsRideAlong: a document saved by SaveEncoded and loaded
// back enters the catalog with exactly the statistics of the document it
// was saved from — the store holds the relation only, and Add reads the
// statistics off the index it builds.
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
	cat, fresh := NewCatalog(), NewCatalog()
	cat.Add("doc", loaded)
	fresh.Add("doc", doc)
	if got, want := cat.Snapshot().st.Docs["doc"], fresh.Snapshot().st.Docs["doc"]; !reflect.DeepEqual(got, want) {
		t.Errorf("loaded document's statistics %+v, want %+v", got, want)
	}
}

package difftest

import (
	"errors"
	"testing"
	"time"

	"dixq/internal/core"
	"dixq/internal/interp"
	"dixq/internal/interval"
	"dixq/internal/sqlgen"
	"dixq/internal/xmark"
	"dixq/internal/xmltree"
	"dixq/internal/xq"
)

// sqlUnsupported lists the queries outside the SQL translation's
// fragment, with the operator that has no template. The differential test
// pins that they fail with ErrUnsupported rather than silently degrading;
// every other query must be digit-identical through the SQL path too.
var sqlUnsupported = map[string]string{
	"Q6":  "descendant axis (subtrees-dfs)",
	"Q7":  "descendant axis (subtrees-dfs)",
	"Q14": "descendant axis (subtrees-dfs)",
	"Q19": "descendant axis, and order by has no SQL reordering template",
}

// sqlEmpty lists the SQL-supported queries that answer the empty sequence
// on the SQL leg's document. Every other one must answer something, so the
// leg cannot degenerate into comparing empty results.
var sqlEmpty = map[string]bool{"Q11": true, "Q12": true}

// TestFullSuiteAcrossAllEngines is the suite-wide identity matrix of the
// benchmark workload: every XMark query (Q1-Q20) through the interpreter,
// the three DI plan modes, and the generated-SQL path on the generic
// minisql engine, all compared as decoded forests against the
// interpreter's answer. The SQL leg runs at a smaller scale because the
// untuned engine is quadratic on the translation's order predicates —
// that asymmetry is the paper's point, not a bug.
func TestFullSuiteAcrossAllEngines(t *testing.T) {
	t.Parallel()
	cat, icat := Docs(t, 0.002, 17)
	sqlDoc := xmark.Generate(xmark.Config{ScaleFactor: 0.0002, Seed: 5})
	sqlDocs := map[string]xmltree.Forest{xmark.DocName: sqlDoc}

	modes := []struct {
		name string
		opts core.Options
	}{
		{"di-nlj", core.Options{ForceJoinMode: core.ModeNLJ, Parallelism: 1}},
		{"di-msj", core.Options{ForceJoinMode: core.ModeMSJ, Parallelism: 1}},
		{"di-opt", core.Options{ForceJoinMode: core.ModeAuto, Parallelism: 1}},
	}
	for _, q := range xmark.All {
		t.Run(q.Name, func(t *testing.T) {
			// Q9's three-way join on the untuned SQL engine is most of
			// this test's wall time; the other queries overlap with it.
			t.Parallel()
			e, err := xq.Parse(q.Text)
			if err != nil {
				t.Fatal(err)
			}
			want, err := interp.Eval(e, nil, icat)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range modes {
				rel, err := core.Compile(e, m.opts).Eval(cat, m.opts)
				if err != nil {
					t.Fatalf("%s: %v", m.name, err)
				}
				got, err := interval.Decode(rel)
				if err != nil {
					t.Fatalf("%s: result does not decode: %v", m.name, err)
				}
				if !got.Equal(want) {
					t.Errorf("%s disagrees with the interpreter: got %d trees, want %d",
						m.name, len(got), len(want))
				}
			}

			// The SQL-text leg, against the interpreter on its own
			// smaller document.
			sqlWant, err := interp.Eval(e, nil, interp.Catalog(sqlDocs))
			if err != nil {
				t.Fatal(err)
			}
			got, err := sqlgen.Run(e, sqlDocs, time.Time{})
			if why, out := sqlUnsupported[q.Name]; out {
				if !errors.Is(err, sqlgen.ErrUnsupported) {
					t.Fatalf("%s via SQL: err = %v, want ErrUnsupported (%s)", q.Name, err, why)
				}
				return
			}
			if err != nil {
				t.Fatalf("SQL: %v", err)
			}
			if len(sqlWant) == 0 && !sqlEmpty[q.Name] {
				t.Errorf("%s answers empty on the SQL leg's document, and sqlEmpty does not list it", q.Name)
			}
			if !got.Equal(sqlWant) {
				t.Errorf("SQL disagrees with the interpreter:\n got %s\nwant %s",
					got.String(), sqlWant.String())
			}
		})
	}
}

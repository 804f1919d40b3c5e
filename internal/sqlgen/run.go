package sqlgen

import (
	"fmt"

	"dixq/internal/core"
	"dixq/internal/interval"
	"dixq/internal/minisql"
	"dixq/internal/plan"
	"dixq/internal/xmltree"
	"dixq/internal/xq"
)

// LoadDB builds a minisql database holding the interval encodings of the
// given documents under the statement's table names, plus the unit table.
func LoadDB(stmt *Statement, docs map[string]xmltree.Forest) (*minisql.DB, error) {
	db := minisql.NewDB()
	db.Create(Unit, &minisql.Table{Cols: []string{"u"}, Rows: [][]minisql.Value{{int64(0)}}})
	for _, d := range stmt.Docs {
		f, ok := docs[d.Doc]
		if !ok {
			return nil, fmt.Errorf("sqlgen: document %q not supplied", d.Doc)
		}
		enc := interval.Encode(f)
		t := &minisql.Table{Cols: []string{"s", "l", "r"}}
		for _, tp := range enc.Tuples {
			t.Rows = append(t.Rows, []minisql.Value{tp.S, tp.L.Digit(0), tp.R.Digit(0)})
		}
		db.Create(d.Table, t)
	}
	return db, nil
}

// DocWidths computes the encoding widths of a document set, for Generate.
func DocWidths(docs map[string]xmltree.Forest) map[string]int64 {
	out := make(map[string]int64, len(docs))
	for name, f := range docs {
		out[name] = int64(2 * f.Size())
	}
	return out
}

// Plan compiles an expression to the nested-loop physical plan the SQL
// backend consumes: the literal Section 4 translation, with no rewrites so
// the emitted SQL matches the expression as written.
func Plan(e xq.Expr) *plan.Node {
	return core.Compile(e, core.Options{NoRewrites: true}).
		Plan(core.Options{ForceJoinMode: core.ModeNLJ})
}

// Run translates a core expression to SQL, executes it on the minisql
// engine over the given documents, and decodes the (s, l, r) result rows
// back into a forest. It is the end-to-end path of the paper's Section 4
// on a generic relational engine.
func Run(e xq.Expr, docs map[string]xmltree.Forest) (xmltree.Forest, error) {
	stmt, err := Generate(Plan(e), DocWidths(docs))
	if err != nil {
		return nil, err
	}
	db, err := LoadDB(stmt, docs)
	if err != nil {
		return nil, err
	}
	return Execute(stmt, db)
}

// Execute runs a generated statement on a prepared database and decodes
// the result.
func Execute(stmt *Statement, db *minisql.DB) (xmltree.Forest, error) {
	out, err := db.Query(stmt.SQL)
	if err != nil {
		return nil, err
	}
	rel := &interval.Relation{}
	for _, row := range out.Rows {
		if len(row) != 3 {
			return nil, fmt.Errorf("sqlgen: result row has %d columns, want 3", len(row))
		}
		s, ok1 := row[0].(string)
		l, ok2 := row[1].(int64)
		r, ok3 := row[2].(int64)
		if !ok1 || !ok2 || !ok3 {
			return nil, fmt.Errorf("sqlgen: result row %v has wrong column types", row)
		}
		rel.Tuples = append(rel.Tuples, interval.Tuple{S: s, L: interval.Key{l}, R: interval.Key{r}})
	}
	f, err := interval.Decode(rel)
	if err != nil {
		return nil, fmt.Errorf("sqlgen: result is not a valid encoding: %w", err)
	}
	return f, nil
}

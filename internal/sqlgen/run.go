package sqlgen

import (
	"context"
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
// The encodings must carry one-digit keys, as interval.Encode builds them.
func LoadDB(stmt *Statement, docs core.Catalog) (*minisql.DB, error) {
	db := minisql.NewDB()
	db.Create(Unit, &minisql.Table{Cols: []string{"u"}, Rows: [][]minisql.Value{{int64(0)}}})
	for _, d := range stmt.Docs {
		enc, ok := docs[d.Doc]
		if !ok {
			return nil, fmt.Errorf("sqlgen: document %q not supplied", d.Doc)
		}
		t := &minisql.Table{Cols: []string{"s", "l", "r"}}
		for _, tp := range enc.Tuples {
			t.Rows = append(t.Rows, []minisql.Value{tp.S, tp.L.Digit(0), tp.R.Digit(0)})
		}
		db.Create(d.Table, t)
	}
	return db, nil
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
// on a generic relational engine. The statement fails with the context's
// error once ctx is done.
func Run(ctx context.Context, e xq.Expr, docs map[string]xmltree.Forest) (xmltree.Forest, error) {
	cat := core.EncodeCatalog(docs)
	stmt, err := Generate(Plan(e), cat.Widths())
	if err != nil {
		return nil, err
	}
	db, err := LoadDB(stmt, cat)
	if err != nil {
		return nil, err
	}
	return Execute(ctx, stmt, db)
}

// Execute runs a generated statement on a prepared database and decodes
// the result.
func Execute(ctx context.Context, stmt *Statement, db *minisql.DB) (xmltree.Forest, error) {
	out, err := db.Query(ctx, stmt.SQL)
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

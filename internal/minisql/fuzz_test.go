package minisql

import (
	"context"
	"testing"
)

// FuzzSQL exercises the SQL parser and executor against a tiny schema: no
// panics, errors only through the error return.
func FuzzSQL(f *testing.F) {
	seeds := []string{
		`SELECT s, l, r FROM x ORDER BY l`,
		`SELECT u.s FROM x u WHERE NOT EXISTS (SELECT * FROM x v WHERE v.l < u.l AND u.r < v.r)`,
		`WITH a AS (SELECT 1 AS v FROM unit) SELECT v FROM a UNION ALL SELECT 2 AS v FROM unit`,
		`SELECT (SELECT COUNT(*) FROM x) AS n FROM unit`,
		`SELECT CAST(l AS VARCHAR) FROM x WHERE s LIKE '<%'`,
		`SELECT i, sub.s FROM idx, (SELECT s FROM x WHERE i <= l) sub`,
		`SELECT MIN(l) FROM x`,
		`SELECT`,
		`SELECT 'unterminated`,
		`SELECT s FROM x WHERE ((l = 1) AND NOT (r = 2)) OR s = ''`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		db := NewDB()
		db.Create("x", &Table{
			Cols: []string{"s", "l", "r"},
			Rows: [][]Value{{"<a>", int64(0), int64(3)}, {"t", int64(1), int64(2)}},
		})
		db.Create("unit", &Table{Cols: []string{"u"}, Rows: [][]Value{{int64(0)}}})
		db.Create("idx", &Table{Cols: []string{"i"}, Rows: [][]Value{{int64(0)}}})
		_, _ = db.Query(context.Background(), sql) // must not panic
	})
}

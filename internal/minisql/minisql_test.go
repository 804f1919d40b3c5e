package minisql

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"
)

func testDB() *DB {
	db := NewDB()
	db.Create("x", &Table{
		Cols: []string{"s", "l", "r"},
		Rows: [][]Value{
			{"<a>", int64(0), int64(5)},
			{"t1", int64(1), int64(2)},
			{"<b>", int64(3), int64(4)},
			{"<c>", int64(6), int64(7)},
		},
	})
	db.Create("unit", &Table{Cols: []string{"u"}, Rows: [][]Value{{int64(0)}}})
	return db
}

func mustQuery(t *testing.T, db *DB, sql string) *Table {
	t.Helper()
	out, err := db.Query(context.Background(), sql)
	if err != nil {
		t.Fatalf("Query(%s): %v", sql, err)
	}
	return out
}

func TestSelectBasics(t *testing.T) {
	db := testDB()
	out := mustQuery(t, db, `SELECT s, l FROM x WHERE l < 3`)
	if !reflect.DeepEqual(out.Cols, []string{"s", "l"}) {
		t.Errorf("cols = %v", out.Cols)
	}
	if len(out.Rows) != 2 || out.Rows[1][0] != "t1" {
		t.Errorf("rows = %v", out.Rows)
	}
}

func TestStarAndAlias(t *testing.T) {
	db := testDB()
	out := mustQuery(t, db, `SELECT * FROM x u WHERE u.l = 0`)
	if len(out.Rows) != 1 || len(out.Rows[0]) != 3 {
		t.Errorf("rows = %v", out.Rows)
	}
	out2 := mustQuery(t, db, `SELECT u.l AS left_end, u.l + 1 plus FROM x u WHERE u.s = '<a>'`)
	if !reflect.DeepEqual(out2.Cols, []string{"left_end", "plus"}) {
		t.Errorf("cols = %v", out2.Cols)
	}
	if out2.Rows[0][1] != int64(1) {
		t.Errorf("rows = %v", out2.Rows)
	}
}

func TestArithmeticAndOrder(t *testing.T) {
	db := testDB()
	out := mustQuery(t, db, `SELECT l * 2 + 1 AS v FROM x ORDER BY 0 - v`)
	if out.Rows[0][0] != int64(13) || out.Rows[3][0] != int64(1) {
		t.Errorf("rows = %v", out.Rows)
	}
}

func TestRootsTemplate(t *testing.T) {
	// The paper's ROOTS template (Section 4.1), verbatim shape.
	db := testDB()
	out := mustQuery(t, db, `
		SELECT u.s AS s, u.l AS l, u.r AS r
		FROM x u
		WHERE NOT EXISTS (
			SELECT * FROM x v WHERE v.l < u.l AND u.r < v.r
		) ORDER BY l`)
	if len(out.Rows) != 2 || out.Rows[0][0] != "<a>" || out.Rows[1][0] != "<c>" {
		t.Errorf("roots = %v", out.Rows)
	}
}

func TestChildrenTemplate(t *testing.T) {
	db := testDB()
	out := mustQuery(t, db, `
		SELECT u.s AS s, u.l AS l FROM x u
		WHERE EXISTS (SELECT * FROM x v WHERE v.l < u.l AND u.r < v.r)
		ORDER BY l`)
	if len(out.Rows) != 2 || out.Rows[0][0] != "t1" || out.Rows[1][0] != "<b>" {
		t.Errorf("children = %v", out.Rows)
	}
}

func TestWithAndUnionAll(t *testing.T) {
	db := testDB()
	out := mustQuery(t, db, `
		WITH roots AS (
			SELECT u.s AS s, u.l AS l, u.r AS r FROM x u
			WHERE NOT EXISTS (SELECT * FROM x v WHERE v.l < u.l AND u.r < v.r)
		),
		both AS (
			(SELECT s, l, r FROM roots)
			UNION ALL
			(SELECT 'extra' AS s, 100 AS l, 101 AS r FROM unit)
		)
		SELECT s, l FROM both ORDER BY l`)
	if len(out.Rows) != 3 || out.Rows[2][0] != "extra" {
		t.Errorf("rows = %v", out.Rows)
	}
}

func TestScalarSubqueryAndAggregates(t *testing.T) {
	db := testDB()
	out := mustQuery(t, db, `SELECT (SELECT COUNT(*) FROM x) AS n, (SELECT MIN(l) FROM x) AS lo, (SELECT MAX(r) FROM x) AS hi FROM unit`)
	if out.Rows[0][0] != int64(4) || out.Rows[0][1] != int64(0) || out.Rows[0][2] != int64(7) {
		t.Errorf("rows = %v", out.Rows)
	}
	out2 := mustQuery(t, db, `SELECT COUNT(*) AS c FROM x WHERE l > 0`)
	if out2.Rows[0][0] != int64(3) {
		t.Errorf("count = %v", out2.Rows)
	}
}

func TestLateralCorrelation(t *testing.T) {
	// The paper's templates put correlated derived tables in the FROM
	// list: FROM I, (SELECT ... WHERE i*w <= l ...).
	db := testDB()
	db.Create("idx", &Table{Cols: []string{"i"}, Rows: [][]Value{{int64(0)}, {int64(6)}}})
	out := mustQuery(t, db, `
		SELECT i, sub.s AS s FROM idx,
			(SELECT s FROM x WHERE i <= l AND r < i + 6) sub
		ORDER BY i, s`)
	// i=0 covers intervals [0..5]: <a>, t1, <b>; i=6 covers [6..11]: <c>.
	if len(out.Rows) != 4 {
		t.Fatalf("rows = %v", out.Rows)
	}
	if out.Rows[0][1] != "<a>" || out.Rows[3][1] != "<c>" {
		t.Errorf("rows = %v", out.Rows)
	}
}

func TestExistsCorrelated(t *testing.T) {
	db := testDB()
	out := mustQuery(t, db, `
		SELECT u.s FROM x u WHERE NOT EXISTS (
			SELECT * FROM x v WHERE v.l > u.l
		)`)
	if len(out.Rows) != 1 || out.Rows[0][0] != "<c>" {
		t.Errorf("rows = %v", out.Rows)
	}
}

func TestLikeAndCast(t *testing.T) {
	db := testDB()
	out := mustQuery(t, db, `SELECT s, l FROM x WHERE s LIKE '<%' ORDER BY l`)
	if len(out.Rows) != 3 {
		t.Errorf("rows = %v", out.Rows)
	}
	out2 := mustQuery(t, db, `SELECT CAST(l AS VARCHAR) AS v FROM x WHERE s = 't1'`)
	if out2.Rows[0][0] != "1" {
		t.Errorf("cast = %v", out2.Rows)
	}
	out3 := mustQuery(t, db, `SELECT s FROM x WHERE s LIKE 't1'`)
	if len(out3.Rows) != 1 {
		t.Errorf("exact like = %v", out3.Rows)
	}
}

func TestParenCondAndNot(t *testing.T) {
	db := testDB()
	out := mustQuery(t, db, `SELECT s FROM x WHERE (l = 0 OR l = 6) AND NOT (s = '<c>')`)
	if len(out.Rows) != 1 || out.Rows[0][0] != "<a>" {
		t.Errorf("rows = %v", out.Rows)
	}
	out2 := mustQuery(t, db, `SELECT s FROM x WHERE (l + 1) * 2 = 2`)
	if len(out2.Rows) != 1 || out2.Rows[0][0] != "<a>" {
		t.Errorf("paren expr rows = %v", out2.Rows)
	}
}

func TestNegativeNumbers(t *testing.T) {
	db := testDB()
	out := mustQuery(t, db, `SELECT l - 10 AS v FROM x WHERE s = '<a>'`)
	if out.Rows[0][0] != int64(-10) {
		t.Errorf("rows = %v", out.Rows)
	}
	out2 := mustQuery(t, db, `SELECT s FROM x WHERE l > -1 AND l < 1`)
	if len(out2.Rows) != 1 {
		t.Errorf("rows = %v", out2.Rows)
	}
}

func TestStringEscapes(t *testing.T) {
	db := NewDB()
	db.Create("t", &Table{Cols: []string{"s"}, Rows: [][]Value{{"it's"}}})
	out := mustQuery(t, db, `SELECT s FROM t WHERE s = 'it''s'`)
	if len(out.Rows) != 1 {
		t.Errorf("rows = %v", out.Rows)
	}
}

func TestComments(t *testing.T) {
	db := testDB()
	out := mustQuery(t, db, "SELECT s -- trailing comment\nFROM x -- another\nWHERE l = 0")
	if len(out.Rows) != 1 {
		t.Errorf("rows = %v", out.Rows)
	}
}

func TestErrors(t *testing.T) {
	db := testDB()
	bad := []string{
		``,
		`SELECT`,
		`SELECT FROM x`,
		`SELECT s FROM`,
		`SELECT s FROM nosuch`,
		`SELECT nosuch FROM x`,
		`SELECT u.nosuch FROM x u`,
		`SELECT s FROM x WHERE`,
		`SELECT s FROM x WHERE s`,
		`SELECT s FROM x WHERE s = `,
		`SELECT s FROM x WHERE l = 'str'`,
		`SELECT s + 1 FROM x`,
		`SELECT (SELECT l FROM x) FROM unit`,
		`SELECT s FROM (SELECT s FROM x)`,
		`SELECT s FROM x WHERE s LIKE '%mid%'`,
		`SELECT s FROM x WHERE l LIKE 'a%'`,
		`SELECT COUNT(*) + 1 FROM x WHERE COUNT(*) = 1`,
		`SELECT MIN(l) FROM x WHERE l > 100`,
		`WITH v AS SELECT s FROM x SELECT s FROM v`,
		`SELECT 'unterminated FROM x`,
		`SELECT s FROM x extra garbage ,`,
		`SELECT s FROM x UNION SELECT s FROM x`,
		`SELECT s, l FROM x UNION ALL SELECT s FROM x`,
		`SELECT 99999999999999999999999 FROM x`,
	}
	for _, sql := range bad {
		if _, err := db.Query(context.Background(), sql); err == nil {
			t.Errorf("Query(%q): expected error", sql)
		}
	}
}

func TestParseErrorMessage(t *testing.T) {
	_, err := Parse(`SELECT s FROM x WHERE !!!`)
	if err == nil || !strings.Contains(err.Error(), "minisql:") {
		t.Errorf("err = %v", err)
	}
}

func TestUnionAllOfThree(t *testing.T) {
	db := testDB()
	out := mustQuery(t, db, `
		SELECT 1 AS v FROM unit
		UNION ALL SELECT 2 AS v FROM unit
		UNION ALL SELECT 3 AS v FROM unit
		ORDER BY v`)
	if len(out.Rows) != 3 || out.Rows[2][0] != int64(3) {
		t.Errorf("rows = %v", out.Rows)
	}
}

func TestEmptyFromProducesOneRow(t *testing.T) {
	db := testDB()
	out := mustQuery(t, db, `SELECT 1 AS one, 'x' AS s`)
	if len(out.Rows) != 1 || out.Rows[0][0] != int64(1) || out.Rows[0][1] != "x" {
		t.Errorf("rows = %v", out.Rows)
	}
}

func TestDeadline(t *testing.T) {
	db := NewDB()
	// A deliberately slow triple self-join over a modest table.
	rows := make([][]Value, 400)
	for i := range rows {
		rows[i] = []Value{int64(i)}
	}
	db.Create("n", &Table{Cols: []string{"v"}, Rows: rows})
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, err := db.Query(ctx, `SELECT COUNT(*) FROM n a, n b, n c WHERE a.v = b.v AND b.v = c.v`)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	// A done context stops a statement before it starts, however cheap.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.Query(cancelled, `SELECT COUNT(*) FROM n`); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled context: err = %v", err)
	}
	if _, err := db.Query(context.Background(), `SELECT COUNT(*) FROM n`); err != nil {
		t.Fatalf("live context: %v", err)
	}
}

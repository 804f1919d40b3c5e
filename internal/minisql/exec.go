package minisql

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"dixq/internal/xnum"
)

// Table is an in-memory relation.
type Table struct {
	Cols []string
	Rows [][]Value
}

// DB holds named tables.
type DB struct {
	tables map[string]*Table
}

// NewDB returns an empty database.
func NewDB() *DB { return &DB{tables: map[string]*Table{}} }

// Create registers a table, replacing any previous one of the same name.
func (db *DB) Create(name string, t *Table) { db.tables[name] = t }

// Query parses and executes a statement. It fails with the context's
// error once ctx is done: checked when the statement starts and every
// 2^10 evaluation steps after.
func (db *DB) Query(ctx context.Context, sql string) (*Table, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ex := &executor{ctx: ctx, db: db, ctes: map[string]*Table{}}
	var out *Table
	err = ex.catch(func() {
		for _, cte := range stmt.With {
			ex.ctes[cte.Name] = ex.sel(cte.Query, nil)
		}
		out = ex.sel(stmt.Body, nil)
		if len(stmt.OrderBy) > 0 {
			ex.orderBy(out, stmt.OrderBy)
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

type execError struct{ err error }

type executor struct {
	ctx   context.Context
	db    *DB
	ctes  map[string]*Table
	steps int64
}

// tick charges one evaluation step and aborts once the context is done.
func (ex *executor) tick() {
	ex.steps++
	if ex.steps%(1<<10) == 0 {
		if err := ex.ctx.Err(); err != nil {
			panic(execError{err})
		}
	}
}

func (ex *executor) catch(f func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(execError); ok {
				err = e.err
				return
			}
			panic(r)
		}
	}()
	f()
	return nil
}

func (ex *executor) fail(format string, args ...any) {
	panic(execError{fmt.Errorf("minisql: %s", fmt.Sprintf(format, args...))})
}

// scope is the row context for expression evaluation: a chain of bound
// from-items. Outer scopes provide correlation for subqueries and lateral
// derived tables.
type scope struct {
	parent *scope
	alias  string
	cols   []string
	row    []Value
}

func (s *scope) lookup(alias, col string) (Value, bool) {
	for cur := s; cur != nil; cur = cur.parent {
		if alias != "" && cur.alias != alias {
			continue
		}
		for i, c := range cur.cols {
			if c == col {
				return cur.row[i], true
			}
		}
		if alias != "" {
			return nil, false // alias matched but column missing
		}
	}
	return nil, false
}

// sel evaluates a select under an outer scope (nil at top level).
func (ex *executor) sel(q *Select, outer *scope) *Table {
	var out *Table
	for _, b := range q.Branches {
		t := ex.branch(b, outer)
		if out == nil {
			out = t
			continue
		}
		if len(t.Cols) != len(out.Cols) {
			ex.fail("UNION ALL branches have different arities (%d vs %d)", len(out.Cols), len(t.Cols))
		}
		out.Rows = append(out.Rows, t.Rows...)
	}
	return out
}

// branch evaluates one SELECT ... FROM ... WHERE ... by nested loops with
// lateral visibility: each from-item may reference the aliases bound to
// its left (and the outer scope), exactly like the correlated derived
// tables in the paper's templates.
func (ex *executor) branch(b *SelectBranch, outer *scope) *Table {
	// Aggregate select: single output row.
	if len(b.Exprs) == 1 {
		if agg, ok := b.Exprs[0].Expr.(Agg); ok {
			return ex.aggregate(b, agg, outer)
		}
	}

	out := &Table{}
	first := true
	emit := func(s *scope) {
		if b.Star {
			// Flatten all bound from-items, innermost last.
			var cols []string
			var row []Value
			var chainFrom func(*scope)
			chainFrom = func(cur *scope) {
				if cur == nil || cur == outer {
					return
				}
				chainFrom(cur.parent)
				cols = append(cols, cur.cols...)
				row = append(row, cur.row...)
			}
			chainFrom(s)
			if first {
				out.Cols = cols
				first = false
			}
			out.Rows = append(out.Rows, row)
			return
		}
		if first {
			for i, item := range b.Exprs {
				name := item.As
				if name == "" {
					if c, ok := item.Expr.(ColRef); ok {
						name = c.Col
					} else {
						name = "col" + strconv.Itoa(i+1)
					}
				}
				out.Cols = append(out.Cols, name)
			}
			first = false
		}
		row := make([]Value, len(b.Exprs))
		for i, item := range b.Exprs {
			row[i] = ex.expr(item.Expr, s)
		}
		out.Rows = append(out.Rows, row)
	}

	var loop func(i int, s *scope)
	loop = func(i int, s *scope) {
		if i == len(b.From) {
			ex.tick()
			if b.Where == nil || ex.cond(b.Where, s) {
				emit(s)
			}
			return
		}
		item := b.From[i]
		var t *Table
		if item.Sub != nil {
			t = ex.sel(item.Sub, s) // lateral: sees bound items + outer
		} else {
			t = ex.table(item.Table)
		}
		alias := item.Alias
		if alias == "" {
			alias = item.Table
		}
		for _, row := range t.Rows {
			loop(i+1, &scope{parent: s, alias: alias, cols: t.Cols, row: row})
		}
	}
	if len(b.From) == 0 {
		if b.Where == nil || ex.cond(b.Where, outer) {
			emit(outer)
		}
		// emit with outer scope only: ensure columns set even when no rows
		if first {
			for i, item := range b.Exprs {
				name := item.As
				if name == "" {
					name = "col" + strconv.Itoa(i+1)
				}
				_ = i
				out.Cols = append(out.Cols, name)
			}
		}
		return out
	}
	loop(0, outer)
	if first {
		// No rows: derive column names from the select list (or leave
		// empty for SELECT *).
		if !b.Star {
			for i, item := range b.Exprs {
				name := item.As
				if name == "" {
					if c, ok := item.Expr.(ColRef); ok {
						name = c.Col
					} else {
						name = "col" + strconv.Itoa(i+1)
					}
				}
				out.Cols = append(out.Cols, name)
			}
		}
	}
	return out
}

func (ex *executor) aggregate(b *SelectBranch, agg Agg, outer *scope) *Table {
	name := b.Exprs[0].As
	if name == "" {
		name = strings.ToLower(agg.Fn)
	}
	out := &Table{Cols: []string{name}}
	var count int64
	var sum float64
	var best Value
	var loop func(i int, s *scope)
	loop = func(i int, s *scope) {
		if i == len(b.From) {
			ex.tick()
			if b.Where != nil && !ex.cond(b.Where, s) {
				return
			}
			count++
			if agg.Arg != nil {
				v := ex.expr(agg.Arg, s)
				if agg.Fn == "SUM" || agg.Fn == "AVG" {
					f, ok := toFloat(v)
					if !ok {
						ex.fail("%s over non-number %T", agg.Fn, v)
					}
					sum += f
					return
				}
				if best == nil {
					best = v
					return
				}
				c := compareValues(v, best, ex)
				if (agg.Fn == "MIN" && c < 0) || (agg.Fn == "MAX" && c > 0) {
					best = v
				}
			}
			return
		}
		item := b.From[i]
		var t *Table
		if item.Sub != nil {
			t = ex.sel(item.Sub, s)
		} else {
			t = ex.table(item.Table)
		}
		alias := item.Alias
		if alias == "" {
			alias = item.Table
		}
		for _, row := range t.Rows {
			loop(i+1, &scope{parent: s, alias: alias, cols: t.Cols, row: row})
		}
	}
	loop(0, outer)
	switch agg.Fn {
	case "COUNT":
		out.Rows = [][]Value{{count}}
	case "SUM":
		// SUM over empty input is 0 here (SQL would say NULL): the
		// translation's sum template relies on the zero baseline.
		out.Rows = [][]Value{{sum}}
	case "AVG":
		if count == 0 {
			ex.fail("AVG over empty input")
		}
		out.Rows = [][]Value{{sum / float64(count)}}
	default:
		if best == nil {
			ex.fail("%s over empty input", agg.Fn)
		}
		out.Rows = [][]Value{{best}}
	}
	return out
}

func (ex *executor) table(name string) *Table {
	if t, ok := ex.ctes[name]; ok {
		return t
	}
	if t, ok := ex.db.tables[name]; ok {
		return t
	}
	ex.fail("unknown table %q", name)
	return nil
}

func (ex *executor) expr(e Expr, s *scope) Value {
	switch e := e.(type) {
	case ColRef:
		v, ok := s.lookup(e.Alias, e.Col)
		if !ok {
			if e.Alias != "" {
				ex.fail("unknown column %s.%s", e.Alias, e.Col)
			}
			ex.fail("unknown column %s", e.Col)
		}
		return v
	case IntLit:
		return e.V
	case StrLit:
		return e.V
	case BinOp:
		l := ex.expr(e.L, s)
		r := ex.expr(e.R, s)
		li, lInt := l.(int64)
		ri, rInt := r.(int64)
		if lInt && rInt && e.Op != '/' {
			switch e.Op {
			case '+':
				return li + ri
			case '-':
				return li - ri
			default:
				return li * ri
			}
		}
		// Float arithmetic: division always, and any float operand
		// promotes — matching xnum.Arith's IEEE semantics.
		lf, lok := toFloat(l)
		rf, rok := toFloat(r)
		if !lok || !rok {
			ex.fail("arithmetic on non-numbers")
		}
		switch e.Op {
		case '+':
			return lf + rf
		case '-':
			return lf - rf
		case '*':
			return lf * rf
		default:
			return lf / rf
		}
	case ScalarSub:
		t := ex.sel(e.Query, s)
		if len(t.Rows) != 1 || len(t.Cols) != 1 {
			ex.fail("scalar subquery returned %d rows, %d cols", len(t.Rows), len(t.Cols))
		}
		return t.Rows[0][0]
	case Agg:
		ex.fail("aggregate outside aggregate select")
		return nil
	case Cast:
		v := ex.expr(e.E, s)
		switch n := v.(type) {
		case int64:
			return strconv.FormatInt(n, 10)
		case float64:
			return xnum.Format(n)
		}
		return v
	case Func:
		v := ex.expr(e.E, s)
		switch e.Fn {
		case "NUM":
			f, ok := toFloat(v)
			if !ok {
				// Non-numeric text coerces to 0, the xnum.ParseOrZero rule.
				return 0.0
			}
			return f
		default: // FMT
			f, ok := toFloat(v)
			if !ok {
				ex.fail("FMT on non-number %T", v)
			}
			return xnum.Format(f)
		}
	default:
		ex.fail("unknown expression %T", e)
		return nil
	}
}

// toFloat reads a value as a float64 under the xnum parsing rules.
func toFloat(v Value) (float64, bool) {
	switch v := v.(type) {
	case int64:
		return float64(v), true
	case float64:
		return v, true
	case string:
		return xnum.Parse(v)
	default:
		return 0, false
	}
}

func compareValues(a, b Value, ex *executor) int {
	// Numbers compare numerically, with int64/float64 promotion; strings
	// compare bytewise. Mixing a number with a string is a type error.
	if _, ok := a.(string); !ok {
		af, aok := toFloat(a)
		bf, bok := toFloat(b)
		if _, isStr := b.(string); isStr || !aok || !bok {
			ex.fail("type mismatch in comparison (%T vs %T)", a, b)
		}
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	}
	av := a.(string)
	bv, ok := b.(string)
	if !ok {
		ex.fail("type mismatch in comparison (string vs %T)", b)
	}
	return strings.Compare(av, bv)
}

func (ex *executor) cond(c Cond, s *scope) bool {
	switch c := c.(type) {
	case Cmp:
		cmp := compareValues(ex.expr(c.L, s), ex.expr(c.R, s), ex)
		switch c.Op {
		case "=":
			return cmp == 0
		case "<>":
			return cmp != 0
		case "<":
			return cmp < 0
		case "<=":
			return cmp <= 0
		case ">":
			return cmp > 0
		default:
			return cmp >= 0
		}
	case Logic:
		if c.Op == "AND" {
			return ex.cond(c.L, s) && ex.cond(c.R, s)
		}
		return ex.cond(c.L, s) || ex.cond(c.R, s)
	case NotCond:
		return !ex.cond(c.C, s)
	case Exists:
		return ex.anyRows(c.Query, s)
	case Like:
		v, ok := ex.expr(c.E, s).(string)
		if !ok {
			ex.fail("LIKE on non-string")
		}
		return matchLike(v, c.Pattern, ex)
	case IsNum:
		switch v := ex.expr(c.E, s).(type) {
		case string:
			_, ok := xnum.Parse(v)
			return ok
		default:
			return true // int64 and float64 are always numeric
		}
	default:
		ex.fail("unknown condition %T", c)
		return false
	}
}

// matchLike supports 'prefix%' and exact patterns (no mid-string
// wildcards), which is all the translation emits.
func matchLike(v, pattern string, ex *executor) bool {
	if i := strings.IndexByte(pattern, '%'); i >= 0 {
		if i != len(pattern)-1 {
			ex.fail("only trailing %% supported in LIKE")
		}
		return strings.HasPrefix(v, pattern[:i])
	}
	return v == pattern
}

// anyRows reports whether a select produces at least one row, stopping at
// the first hit — the one shortcut every real engine applies to EXISTS.
// The enclosing nested-loop join strategy is unchanged.
func (ex *executor) anyRows(q *Select, outer *scope) bool {
	for _, b := range q.Branches {
		if ex.branchHasRow(b, outer) {
			return true
		}
	}
	return false
}

func (ex *executor) branchHasRow(b *SelectBranch, outer *scope) bool {
	if len(b.Exprs) == 1 {
		if _, ok := b.Exprs[0].Expr.(Agg); ok {
			return true // aggregate selects always yield one row
		}
	}
	if len(b.From) == 0 {
		return b.Where == nil || ex.cond(b.Where, outer)
	}
	var loop func(i int, s *scope) bool
	loop = func(i int, s *scope) bool {
		if i == len(b.From) {
			ex.tick()
			return b.Where == nil || ex.cond(b.Where, s)
		}
		item := b.From[i]
		var t *Table
		if item.Sub != nil {
			t = ex.sel(item.Sub, s)
		} else {
			t = ex.table(item.Table)
		}
		alias := item.Alias
		if alias == "" {
			alias = item.Table
		}
		for _, row := range t.Rows {
			if loop(i+1, &scope{parent: s, alias: alias, cols: t.Cols, row: row}) {
				return true
			}
		}
		return false
	}
	return loop(0, outer)
}

func (ex *executor) orderBy(t *Table, exprs []Expr) {
	keyed := make([][]Value, len(t.Rows))
	for i, row := range t.Rows {
		s := &scope{cols: t.Cols, row: row}
		keys := make([]Value, len(exprs))
		for j, e := range exprs {
			keys[j] = ex.expr(e, s)
		}
		keyed[i] = keys
	}
	idx := make([]int, len(t.Rows))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		for j := range exprs {
			if c := compareValues(keyed[idx[a]][j], keyed[idx[b]][j], ex); c != 0 {
				return c < 0
			}
		}
		return false
	})
	rows := make([][]Value, len(t.Rows))
	for i, k := range idx {
		rows[i] = t.Rows[k]
	}
	t.Rows = rows
}

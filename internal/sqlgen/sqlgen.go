// Package sqlgen emits the paper's XQuery-to-SQL translation: the
// compiled physical plan of a core expression (the same plan.Node tree
// the dynamic-interval executor runs) becomes one SQL statement built by
// composing the templates of Section 4 — the XFn operator templates (4.1)
// wrapped per environment (4.2.1), assignment (4.2.2), the conditional
// (4.2.3) and the iterator (4.2.4) — over the scalar dynamic interval
// encoding, with all widths fixed at translation time exactly as the
// paper describes.
//
// The statement is rendered as a WITH chain (each template instantiation
// one common table expression) ending in a single SELECT; it runs on any
// engine supporting correlated derived tables, in particular the bundled
// minisql engine, which plays the untuned relational engine of Section 5.
//
// Generate consumes nested-loop plans (compile with ModeNLJ): the
// iterator template is the literal §4.2.4 translation, and the merge-join
// decorrelation is precisely the optimization a generic engine does not
// get. Path chains translate operator by operator — fusing them is an
// execution strategy, not a different plan shape.
//
// The scalar backend has the limitations the paper acknowledges: interval
// endpoints are machine integers, so the polynomial width growth bounds
// the document size per nesting depth (Generate fails loudly on overflow
// instead of corrupting intervals), and the operators whose templates the
// paper omits "for space reasons" with no first-order rendering — sort,
// reverse, distinct, subtrees-dfs, order-by, structural less — are
// rejected with ErrUnsupported. The dynamic-interval engine (package core) has none of
// these limits; this package exists to validate the translation itself.
package sqlgen

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"dixq/internal/interval"
	"dixq/internal/plan"
	"dixq/internal/xmltree"
)

// ErrUnsupported marks operators outside the scalar SQL backend.
var ErrUnsupported = errors.New("sqlgen: operator not supported by the SQL backend")

// ErrOverflow marks width bounds exceeding the scalar integer range.
var ErrOverflow = errors.New("sqlgen: width bound exceeds the scalar integer range")

// DocTable maps a document name to its base table in the statement.
type DocTable struct {
	Doc   string
	Table string
	Width int64
}

// Statement is a generated SQL statement plus its schema requirements.
type Statement struct {
	// SQL is the single statement implementing the query. Results are
	// (s, l, r) rows ordered by l — an interval encoding of the answer.
	SQL string
	// Docs lists the base tables the statement reads: one (s, l, r) table
	// per input document, plus the single-row table named Unit.
	Docs []DocTable
	// Width is the result's width bound.
	Width int64
}

// Unit is the name of the single-row constant table every statement uses.
const Unit = "unit"

// Generate translates a compiled physical plan. The plan must use
// nested-loop iteration (ModeNLJ). docWidths gives each document's
// encoding width (2 · node count for the DFS-counter encoding).
func Generate(p *plan.Node, docWidths map[string]int64) (*Statement, error) {
	for _, doc := range plan.Documents(p) {
		if w, ok := docWidths[doc]; !ok || w <= 0 {
			return nil, fmt.Errorf("sqlgen: missing width for document %q", doc)
		}
	}
	g := &generator{docWidths: docWidths}
	env := g.initialEnv(p)
	tab, err := g.expr(p, env)
	if err != nil {
		return nil, err
	}
	final := g.view(fmt.Sprintf("SELECT s, l, r FROM %s", tab.view))
	var b strings.Builder
	b.WriteString("WITH\n")
	for i, v := range g.views {
		if i > 0 {
			b.WriteString(",\n")
		}
		fmt.Fprintf(&b, "%s AS (%s\n)", v.name, formatView(v.body))
	}
	fmt.Fprintf(&b, "\nSELECT s, l, r FROM %s ORDER BY l", final)
	docs := make([]DocTable, 0, len(g.docTables))
	for doc, t := range g.docTables {
		docs = append(docs, DocTable{Doc: doc, Table: t, Width: docWidths[doc]})
	}
	sort.Slice(docs, func(i, j int) bool { return docs[i].Doc < docs[j].Doc })
	return &Statement{SQL: b.String(), Docs: docs, Width: tab.width}, nil
}

type namedView struct {
	name string
	body string
}

type generator struct {
	docWidths map[string]int64
	docTables map[string]string
	views     []namedView
	n         int
}

// sqlTab is a translated plan node: the view holding its encoding at the
// current environment, plus its width.
type sqlTab struct {
	view  string
	width int64
}

// sqlEnv is the compile-time environment: the index view and the per-
// variable views, all aligned to the same environment sequence.
type sqlEnv struct {
	index string
	vars  map[string]sqlTab
}

func (e *sqlEnv) clone() *sqlEnv {
	vars := make(map[string]sqlTab, len(e.vars))
	for k, v := range e.vars {
		vars[k] = v
	}
	return &sqlEnv{index: e.index, vars: vars}
}

func (g *generator) view(body string) string {
	g.n++
	name := fmt.Sprintf("v%d", g.n)
	g.views = append(g.views, namedView{name: name, body: body})
	return name
}

func (g *generator) initialEnv(p *plan.Node) *sqlEnv {
	g.docTables = map[string]string{}
	env := &sqlEnv{vars: map[string]sqlTab{}}
	env.index = g.view(fmt.Sprintf("SELECT 0 AS i FROM %s", Unit))
	for i, doc := range plan.Documents(p) {
		t := fmt.Sprintf("doc_%d", i+1)
		g.docTables[doc] = t
		env.vars["doc:"+doc] = sqlTab{view: t, width: g.docWidths[doc]}
	}
	return env
}

func mulWidth(a, b int64) (int64, error) {
	if a == 0 || b == 0 {
		return 0, nil
	}
	p := a * b
	if p/a != b || p < 0 {
		return 0, ErrOverflow
	}
	return p, nil
}

func addWidth(a, b int64) (int64, error) {
	s := a + b
	if s < 0 {
		return 0, ErrOverflow
	}
	return s, nil
}

// envWindow renders the membership test of tuple alias a in environment i
// at width w: i*w <= a.l AND a.r < (i+1)*w.
func envWindow(alias string, w int64) string {
	return fmt.Sprintf("i*%d <= %s.l AND %s.r < (i+1)*%d", w, alias, alias, w)
}

func sqlString(s string) string {
	return "'" + strings.ReplaceAll(s, "'", "''") + "'"
}

func (g *generator) expr(n *plan.Node, env *sqlEnv) (sqlTab, error) {
	switch n.Op {
	case plan.OpVar, plan.OpEmbedOuter:
		// The SQL environments re-embed every visible variable eagerly at
		// each loop entry, so both reads are plain lookups here.
		t, ok := env.vars[n.Label]
		if !ok {
			return sqlTab{}, fmt.Errorf("sqlgen: unbound variable $%s", n.Label)
		}
		return t, nil
	case plan.OpScan:
		t, ok := env.vars["doc:"+n.Label]
		if !ok {
			return sqlTab{}, fmt.Errorf("sqlgen: unknown document %q", n.Label)
		}
		return t, nil
	case plan.OpConst:
		return g.constTable(n.Value, env)
	case plan.OpLet:
		val, err := g.expr(n.Inputs[0], env)
		if err != nil {
			return sqlTab{}, err
		}
		child := env.clone()
		child.vars[n.Label] = val
		return g.expr(n.Inputs[1], child)
	case plan.OpFilter:
		return g.where(n, env)
	case plan.OpBindVar:
		return g.forLoop(n, env)
	case plan.OpMSJ:
		return sqlTab{}, fmt.Errorf("sqlgen: merge-join plan (generate from a ModeNLJ plan)")
	case plan.OpRoots, plan.OpPathStep, plan.OpStructuralSort, plan.OpReverse,
		plan.OpDistinct, plan.OpSubtreesDFS, plan.OpConstruct, plan.OpConcat, plan.OpCount,
		plan.OpAggregate, plan.OpArith, plan.OpTake, plan.OpDrop, plan.OpOrderBy:
		return g.call(n, env)
	case plan.OpInvalid:
		return sqlTab{}, fmt.Errorf("sqlgen: %s", n.Label)
	default:
		return sqlTab{}, fmt.Errorf("sqlgen: unknown operator %s", n.OpName())
	}
}

// constTable materializes a literal forest into every environment.
func (g *generator) constTable(f xmltree.Forest, env *sqlEnv) (sqlTab, error) {
	enc := interval.Encode(f)
	w := int64(2 * f.Size())
	var rows []string
	for _, t := range enc.Tuples {
		rows = append(rows, fmt.Sprintf("SELECT %s AS s, %d AS l, %d AS r FROM %s",
			sqlString(t.S), t.L.Digit(0), t.R.Digit(0), Unit))
	}
	if len(rows) == 0 {
		// The empty forest: a view with no rows of the right shape.
		rows = append(rows, fmt.Sprintf("SELECT '' AS s, 0 AS l, 0 AS r FROM %s WHERE 0 = 1", Unit))
	}
	lit := g.view(strings.Join(rows, " UNION ALL "))
	body := fmt.Sprintf(
		"SELECT c.s AS s, c.l + i*%d AS l, c.r + i*%d AS r FROM %s, %s c",
		w, w, env.index, lit)
	return sqlTab{view: g.view(body), width: w}, nil
}

func (g *generator) call(n *plan.Node, env *sqlEnv) (sqlTab, error) {
	args := make([]sqlTab, len(n.Inputs))
	for i, a := range n.Inputs {
		t, err := g.expr(a, env)
		if err != nil {
			return sqlTab{}, err
		}
		args[i] = t
	}
	switch n.Op {
	case plan.OpRoots:
		return sqlTab{view: g.rootsView(args[0].view), width: args[0].width}, nil
	case plan.OpPathStep:
		return g.pathStep(n, args[0], env)
	case plan.OpCount:
		w := args[0].width
		body := fmt.Sprintf(
			"SELECT CAST((SELECT COUNT(*) FROM %s t WHERE %s AND NOT EXISTS (SELECT * FROM %s u WHERE %s AND u.l < t.l AND t.r < u.r)) AS VARCHAR) AS s, i*2 AS l, i*2 + 1 AS r FROM %s",
			args[0].view, envWindow("t", w), args[0].view, envWindow("u", w), env.index)
		return sqlTab{view: g.view(body), width: 2}, nil
	case plan.OpConstruct:
		win := args[0].width
		wout, err := addWidth(win, 2)
		if err != nil {
			return sqlTab{}, err
		}
		// Example 4.2, verbatim shape.
		body := fmt.Sprintf(
			`SELECT b.s AS s, b.l + i*%d AS l, b.r + i*%d AS r FROM %s, (SELECT %s AS s, 0 AS l, %d AS r FROM %s UNION ALL SELECT e.s AS s, e.l + 1 AS l, e.r + 1 AS r FROM (SELECT t.s AS s, t.l - i*%d AS l, t.r - i*%d AS r FROM %s t WHERE %s) e) b`,
			wout, wout, env.index, sqlString(n.Label), wout-1, Unit,
			win, win, args[0].view, envWindow("t", win))
		return sqlTab{view: g.view(body), width: wout}, nil
	case plan.OpConcat:
		w1, w2 := args[0].width, args[1].width
		wout, err := addWidth(w1, w2)
		if err != nil {
			return sqlTab{}, err
		}
		body := fmt.Sprintf(
			"SELECT a.s AS s, a.l - i*%d + i*%d AS l, a.r - i*%d + i*%d AS r FROM %s, %s a WHERE %s UNION ALL SELECT b.s AS s, b.l - i*%d + i*%d + %d AS l, b.r - i*%d + i*%d + %d AS r FROM %s, %s b WHERE %s",
			w1, wout, w1, wout, env.index, args[0].view, envWindow("a", w1),
			w2, wout, w1, w2, wout, w1, env.index, args[1].view, envWindow("b", w2))
		return sqlTab{view: g.view(body), width: wout}, nil
	case plan.OpAggregate:
		return g.aggregate(n, args[0], env)
	case plan.OpArith:
		return g.arith(n, args[0], args[1], env)
	case plan.OpTake, plan.OpDrop:
		return g.takeDrop(n, args[0], env)
	case plan.OpStructuralSort, plan.OpReverse, plan.OpDistinct, plan.OpSubtreesDFS,
		plan.OpOrderBy:
		return sqlTab{}, fmt.Errorf("%w: %s", ErrUnsupported, n.OpName())
	default:
		return sqlTab{}, fmt.Errorf("sqlgen: unknown operator %s", n.OpName())
	}
}

// numericRoots renders the per-environment root-value scan the aggregate
// templates share: the top-level roots of view whose labels are numeric.
func numericRootsFrom(roots, alias string, w int64) string {
	return fmt.Sprintf("%s %s WHERE %s AND ISNUM(%s.s)", roots, alias, envWindow(alias, w), alias)
}

// aggregate instantiates the numeric-aggregate templates: per environment
// a single width-2 text tuple holding sum/avg/min/max of the numeric root
// labels. sum always emits (SUM over no rows is 0); avg/min/max emit only
// for environments with at least one numeric root, matching fn:sum's and
// fn:avg's empty-sequence rules. NUM, FMT and ISNUM are the scalar
// numeric-interpretation helpers minisql shares with xnum, which is what
// keeps the text of the result digit-identical across every engine.
func (g *generator) aggregate(n *plan.Node, arg sqlTab, env *sqlEnv) (sqlTab, error) {
	w := arg.width
	roots := g.rootsView(arg.view)
	var agg string
	switch n.Label {
	case "sum":
		agg = "SUM"
	case "avg":
		agg = "AVG"
	case "min":
		agg = "MIN"
	case "max":
		agg = "MAX"
	default:
		return sqlTab{}, fmt.Errorf("sqlgen: unknown aggregate %q", n.Label)
	}
	scalar := fmt.Sprintf("(SELECT %s(NUM(t.s)) FROM %s)", agg, numericRootsFrom(roots, "t", w))
	body := fmt.Sprintf("SELECT FMT(%s) AS s, i*2 AS l, i*2 + 1 AS r FROM %s", scalar, env.index)
	if n.Label != "sum" {
		body += fmt.Sprintf(" WHERE EXISTS (SELECT * FROM %s)", numericRootsFrom(roots, "u", w))
	}
	return sqlTab{view: g.view(body), width: 2}, nil
}

// firstRoot renders the scalar subquery picking the first root label of a
// view in the current environment — the MIN(l) tuple, which is always a
// top-level root since contained intervals open after their container.
func firstRoot(view string, w int64) string {
	return fmt.Sprintf(
		"(SELECT a.s FROM %s a WHERE %s AND a.l = (SELECT MIN(b.l) FROM %s b WHERE %s))",
		view, envWindow("a", w), view, envWindow("b", w))
}

// arith instantiates the binary-arithmetic template: per environment one
// width-2 text tuple holding l op r over the first root labels of the two
// sides (non-numbers coerced to 0 by NUM), emitted only where both sides
// are non-empty — xfn.Arith in first-order SQL.
func (g *generator) arith(n *plan.Node, a, b sqlTab, env *sqlEnv) (sqlTab, error) {
	op := n.Label
	if op == "div" {
		op = "/"
	}
	if op != "+" && op != "-" && op != "*" && op != "/" {
		return sqlTab{}, fmt.Errorf("sqlgen: unknown arithmetic operator %q", n.Label)
	}
	nonEmpty := func(view string, w int64) string {
		return fmt.Sprintf("EXISTS (SELECT * FROM %s t WHERE %s)", view, envWindow("t", w))
	}
	body := fmt.Sprintf(
		"SELECT FMT(NUM(%s) %s NUM(%s)) AS s, i*2 AS l, i*2 + 1 AS r FROM %s WHERE %s AND %s",
		firstRoot(a.view, a.width), op, firstRoot(b.view, b.width), env.index,
		nonEmpty(a.view, a.width), nonEmpty(b.view, b.width))
	return sqlTab{view: g.view(body), width: 2}, nil
}

// takeDrop instantiates the positional templates: a tuple survives take(n)
// when the rank of its enclosing top-level tree — the count of roots
// starting at or before it — is at most n, and drop(n) keeps the
// complement. Original intervals are unchanged.
func (g *generator) takeDrop(n *plan.Node, arg sqlTab, env *sqlEnv) (sqlTab, error) {
	count, err := opCountLabel(n)
	if err != nil {
		return sqlTab{}, err
	}
	w := arg.width
	roots := g.rootsView(arg.view)
	cmp := "<="
	if n.Op == plan.OpDrop {
		cmp = ">"
	}
	body := fmt.Sprintf(
		"SELECT t.s AS s, t.l AS l, t.r AS r FROM %s, %s t WHERE %s AND (SELECT COUNT(*) FROM %s r WHERE %s AND r.l <= t.l) %s %d",
		env.index, arg.view, envWindow("t", w), roots, envWindow("r", w), cmp, count)
	return sqlTab{view: g.view(body), width: w}, nil
}

// pathStep instantiates the unary path-operator templates of Section 4.1.
func (g *generator) pathStep(n *plan.Node, arg sqlTab, env *sqlEnv) (sqlTab, error) {
	switch n.Step {
	case plan.StepChildren:
		body := fmt.Sprintf(
			"SELECT u.s AS s, u.l AS l, u.r AS r FROM %s u WHERE EXISTS (SELECT * FROM %s v WHERE v.l < u.l AND u.r < v.r)",
			arg.view, arg.view)
		return sqlTab{view: g.view(body), width: arg.width}, nil
	case plan.StepSelect:
		roots := g.rootsView(arg.view)
		body := fmt.Sprintf(
			"SELECT t.s AS s, t.l AS l, t.r AS r FROM %s t, %s r WHERE r.s = %s AND r.l <= t.l AND t.r <= r.r",
			arg.view, roots, sqlString(n.Label))
		return sqlTab{view: g.view(body), width: arg.width}, nil
	case plan.StepSelText:
		roots := g.rootsView(arg.view)
		body := fmt.Sprintf(
			"SELECT t.s AS s, t.l AS l, t.r AS r FROM %s t, %s r WHERE NOT r.s LIKE '<%%' AND NOT r.s LIKE '@%%' AND r.l <= t.l AND t.r <= r.r",
			arg.view, roots)
		return sqlTab{view: g.view(body), width: arg.width}, nil
	case plan.StepData:
		body := fmt.Sprintf(
			"SELECT t.s AS s, t.l AS l, t.r AS r FROM %s t WHERE NOT t.s LIKE '<%%' AND NOT t.s LIKE '@%%'",
			arg.view)
		return sqlTab{view: g.view(body), width: arg.width}, nil
	case plan.StepHead, plan.StepTail:
		op := "<="
		if n.Step == plan.StepTail {
			op = ">"
		}
		w := arg.width
		body := fmt.Sprintf(
			"SELECT t.s AS s, t.l AS l, t.r AS r FROM %s, %s t WHERE %s AND t.l %s (SELECT u.r FROM %s u WHERE u.l = (SELECT MIN(v.l) FROM %s v WHERE %s))",
			env.index, arg.view, envWindow("t", w), op,
			arg.view, arg.view, envWindow("v", w))
		return sqlTab{view: g.view(body), width: w}, nil
	default:
		return sqlTab{}, fmt.Errorf("sqlgen: unknown path step %q", n.Step)
	}
}

// rootsView instantiates the ROOTS template of Section 4.1.
func (g *generator) rootsView(t string) string {
	return g.view(fmt.Sprintf(
		"SELECT u.s AS s, u.l AS l, u.r AS r FROM %s u WHERE NOT EXISTS (SELECT * FROM %s v WHERE v.l < u.l AND u.r < v.r)",
		t, t))
}

// where instantiates the conditional template of Section 4.2.3: a filtered
// index I' plus semi-joined views for the variables the body uses.
func (g *generator) where(n *plan.Node, env *sqlEnv) (sqlTab, error) {
	cond, err := g.cond(n.Inputs[0], env)
	if err != nil {
		return sqlTab{}, err
	}
	newIndex := g.view(fmt.Sprintf("SELECT i FROM %s WHERE %s", env.index, cond))
	child := &sqlEnv{index: newIndex, vars: map[string]sqlTab{}}
	free := plan.FreeVars(n.Inputs[1])
	for name, tab := range env.vars {
		if !free[name] {
			continue
		}
		body := fmt.Sprintf(
			"SELECT t.s AS s, t.l AS l, t.r AS r FROM %s, %s t WHERE %s",
			newIndex, tab.view, envWindow("t", tab.width))
		child.vars[name] = sqlTab{view: g.view(body), width: tab.width}
	}
	return g.expr(n.Inputs[1], child)
}

// cond renders a predicate node as a SQL predicate over the index row
// variable i (Q_φ of the paper).
func (g *generator) cond(n *plan.Node, env *sqlEnv) (string, error) {
	switch n.Op {
	case plan.OpEmptyTest:
		t, err := g.expr(n.Inputs[0], env)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("NOT EXISTS (SELECT * FROM %s t WHERE %s)", t.view, envWindow("t", t.width)), nil
	case plan.OpCmpEq:
		a, err := g.expr(n.Inputs[0], env)
		if err != nil {
			return "", err
		}
		b, err := g.expr(n.Inputs[1], env)
		if err != nil {
			return "", err
		}
		return g.deepEqual(a, b), nil
	case plan.OpCmpLess:
		return "", fmt.Errorf("%w: structural less in conditions", ErrUnsupported)
	case plan.OpCmpVal:
		a, err := g.expr(n.Inputs[0], env)
		if err != nil {
			return "", err
		}
		b, err := g.expr(n.Inputs[1], env)
		if err != nil {
			return "", err
		}
		return g.valueLess(a, b), nil
	case plan.OpContainsTest:
		return "", fmt.Errorf("%w: contains (string aggregation has no first-order template)", ErrUnsupported)
	case plan.OpNot:
		inner, err := g.cond(n.Inputs[0], env)
		if err != nil {
			return "", err
		}
		return "NOT (" + inner + ")", nil
	case plan.OpAnd, plan.OpOr:
		l, err := g.cond(n.Inputs[0], env)
		if err != nil {
			return "", err
		}
		r, err := g.cond(n.Inputs[1], env)
		if err != nil {
			return "", err
		}
		op := "AND"
		if n.Op == plan.OpOr {
			op = "OR"
		}
		return "(" + l + ") " + op + " (" + r + ")", nil
	case plan.OpInvalid:
		return "", fmt.Errorf("sqlgen: %s", n.Label)
	default:
		return "", fmt.Errorf("sqlgen: unknown condition %s", n.OpName())
	}
}

// deepEqual renders structural forest equality per environment "in SQL
// with counting", as Section 5 puts it: two forests are equal iff they
// have the same node count and no preorder rank carries different labels
// or ancestor counts. The paper calls the expression impractical — each
// rank/depth is a correlated COUNT — and that impracticality is the
// baseline this backend exists to demonstrate.
func (g *generator) deepEqual(a, b sqlTab) string {
	rank := func(view string, outer string, inner string, w int64) string {
		return fmt.Sprintf("(SELECT COUNT(*) FROM %s %s WHERE %s AND %s.l < %s.l)",
			view, inner, envWindow(inner, w), inner, outer)
	}
	depth := func(view string, outer string, inner string, w int64) string {
		return fmt.Sprintf("(SELECT COUNT(*) FROM %s %s WHERE %s AND %s.l < %s.l AND %s.r < %s.r)",
			view, inner, envWindow(inner, w), inner, outer, outer, inner)
	}
	countOf := func(view string, alias string, w int64) string {
		return fmt.Sprintf("(SELECT COUNT(*) FROM %s %s WHERE %s)", view, alias, envWindow(alias, w))
	}
	return fmt.Sprintf(
		"%s = %s AND NOT EXISTS (SELECT * FROM %s qa, %s qb WHERE %s AND %s AND %s = %s AND (qa.s <> qb.s OR %s <> %s))",
		countOf(a.view, "ca", a.width), countOf(b.view, "cb", b.width),
		a.view, b.view, envWindow("qa", a.width), envWindow("qb", b.width),
		rank(a.view, "qa", "ra", a.width), rank(b.view, "qb", "rb", b.width),
		depth(a.view, "qa", "da", a.width), depth(b.view, "qb", "db", b.width))
}

// valueLess renders the existential value comparison a < b: some root
// label of a is less than some root label of b under the xnum total
// preorder — numbers ordered by value before non-numeric text, non-numeric
// text bytewise. The class-then-value shape keeps the SQL predicate
// equivalent to xnum.Less term for term.
func (g *generator) valueLess(a, b sqlTab) string {
	ra := g.rootsView(a.view)
	rb := g.rootsView(b.view)
	less := "(ISNUM(qa.s) AND ISNUM(qb.s) AND NUM(qa.s) < NUM(qb.s))" +
		" OR (ISNUM(qa.s) AND NOT ISNUM(qb.s))" +
		" OR (NOT ISNUM(qa.s) AND NOT ISNUM(qb.s) AND qa.s < qb.s)"
	return fmt.Sprintf(
		"EXISTS (SELECT * FROM %s qa, %s qb WHERE %s AND %s AND (%s))",
		ra, rb, envWindow("qa", a.width), envWindow("qb", b.width), less)
}

// opCountLabel reads the decimal count a take/drop node carries in Label.
func opCountLabel(n *plan.Node) (int64, error) {
	var count int64
	if _, err := fmt.Sscanf(n.Label, "%d", &count); err != nil {
		return 0, fmt.Errorf("sqlgen: bad %s count %q", n.OpName(), n.Label)
	}
	return count, nil
}

// forLoop instantiates the iterator template of Section 4.2.4.
//
// One deviation from the templates as printed: the paper defines the new
// index as i' = i·w_e + r.l, with r.l an absolute endpoint. Since r.l
// already lies in [i·w_e, (i+1)·w_e), that formula double-counts i·w_e for
// every environment but the initial one (where i = 0, as in the paper's
// Example 4.3 — which is why the worked figures come out right). The
// consistent general form, which also makes loop exit the claimed no-op
// (tuples of environment i' land inside outer window i at width w_e·w_e'),
// is i' = r.l, equivalently i·w_e plus the *local* offset of r.
func (g *generator) forLoop(n *plan.Node, env *sqlEnv) (sqlTab, error) {
	dom, err := g.expr(n.Inputs[0], env)
	if err != nil {
		return sqlTab{}, err
	}
	wd := dom.width
	roots := g.rootsView(dom.view)
	rootCond := fmt.Sprintf("i*%d <= r.l AND r.r < (i+1)*%d", wd, wd)
	newIndex := g.view(fmt.Sprintf(
		"SELECT r.l AS i FROM %s, %s r WHERE %s",
		env.index, roots, rootCond))
	// T'_x: the loop variable, bound to one tree per new environment.
	shift := func(col string, w int64) string {
		return fmt.Sprintf("x.%s - i*%d + r.l*%d", col, w, w)
	}
	xView := g.view(fmt.Sprintf(
		"SELECT x.s AS s, %s AS l, %s AS r FROM %s, %s x, %s r WHERE %s AND r.l <= x.l AND x.r <= r.r",
		shift("l", wd), shift("r", wd), env.index, dom.view, roots, rootCond))

	child := &sqlEnv{index: newIndex, vars: map[string]sqlTab{}}
	free := plan.FreeVars(n.Inputs[1])
	delete(free, n.Label)
	if n.Pos != "" {
		delete(free, n.Pos)
	}
	for name, tab := range env.vars {
		if !free[name] {
			continue
		}
		// T'_e_j: outer variables re-embedded into every new environment.
		wv := tab.width
		vShift := func(col string) string {
			return fmt.Sprintf("x.%s - i*%d + r.l*%d", col, wv, wv)
		}
		body := fmt.Sprintf(
			"SELECT x.s AS s, %s AS l, %s AS r FROM %s, %s x, %s r WHERE %s AND %s",
			vShift("l"), vShift("r"), env.index, tab.view, roots, rootCond, envWindow("x", wv))
		child.vars[name] = sqlTab{view: g.view(body), width: wv}
	}
	child.vars[n.Label] = sqlTab{view: xView, width: wd}
	if n.Pos != "" {
		// The positional variable: rank of the root within its source
		// environment, as a width-2 text tuple in the new environment.
		posView := g.view(fmt.Sprintf(
			"SELECT CAST((SELECT COUNT(*) FROM %s r2 WHERE i*%d <= r2.l AND r2.l <= r.l) AS VARCHAR) AS s, r.l*2 AS l, r.l*2 + 1 AS r FROM %s, %s r WHERE %s",
			roots, wd, env.index, roots, rootCond))
		child.vars[n.Pos] = sqlTab{view: posView, width: 2}
	}

	bodyTab, err := g.expr(n.Inputs[1], child)
	if err != nil {
		return sqlTab{}, err
	}
	wout, err := mulWidth(wd, bodyTab.width)
	if err != nil {
		return sqlTab{}, err
	}
	// Exiting the loop is a pure reinterpretation (the paper's width
	// adjustment); the view is reused as-is.
	return sqlTab{view: bodyTab.view, width: wout}, nil
}

// formatView lays out a view body with one clause per line, purely for
// readability of the emitted statement (whitespace is insignificant to the
// engine). Generated labels never collide with the uppercase keywords.
func formatView(body string) string {
	out := "\n  " + body
	for _, kw := range []string{" FROM ", " WHERE ", " UNION ALL "} {
		out = strings.ReplaceAll(out, kw, "\n  "+strings.TrimSpace(kw)+" ")
	}
	return out
}

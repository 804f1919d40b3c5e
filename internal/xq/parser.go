package xq

import (
	"fmt"
	"strconv"
	"strings"

	"dixq/internal/xmltree"
)

// SyntaxError reports a query syntax error with a 1-based line and column.
type SyntaxError struct {
	Line int
	Col  int
	Msg  string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("xquery: %d:%d: %s", e.Line, e.Col, e.Msg)
}

// Parse parses a query in the paper's XQuery fragment and desugars it into
// the minimal core language. Supported surface forms:
//
//   - FLWR: for $x in e (, $y in e)* / let $x := e clauses in any order,
//     an optional where clause, and a return clause;
//   - paths: document("d")/step, $v/step, with child (tag), attribute
//     (@name), text() and wildcard (*) steps, descendant steps (//tag),
//     positional and boolean predicates ([1], [price = "3"]);
//   - constructors: <tag a="v" b="{e}">text{e}<nested/></tag>;
//   - comparisons = != < <= > >= (atomizing, value-based: numeric when both
//     atoms are numbers), deep-equal and deep-less (structural, the paper's
//     equal/less), empty, not, and, or;
//   - arithmetic + - * div over atomized operands (binary minus needs
//     surrounding spaces, since '-' is a name character);
//   - positional predicates [N], [position() <= N] and friends, and the
//     FLWR order by clause (stable, numeric-aware key comparison);
//   - the Figure 2 operators as functions: head, tail, reverse, select,
//     distinct, sort, roots, children, subtrees-dfs, plus count, data and
//     the aggregates sum, avg, min, max;
//   - literals: "string", 'string', integers and decimals (text nodes),
//     the empty sequence (), and parenthesized sequences (e1, e2, ...).
func Parse(src string) (Expr, error) {
	p := &qparser{src: src}
	var e Expr
	err := p.catch(func() {
		p.parsePrologue()
		e = p.parseExpr()
		p.skipWS()
		if p.pos < len(p.src) {
			p.fail("unexpected input after expression")
		}
	})
	if err != nil {
		return nil, err
	}
	return e, nil
}

// funcDef is a user-declared function; calls are inlined at parse time.
type funcDef struct {
	params []string
	body   Expr
}

// parsePrologue parses "declare function" declarations preceding the query
// body. Functions must be non-recursive (the paper excludes general
// recursion); since a body can only call functions declared before it,
// recursion surfaces naturally as an unknown-function error. Bodies may
// reference their parameters and documents, nothing else.
func (p *qparser) parsePrologue() {
	for p.peekKeyword("declare") {
		p.eatKeyword("declare")
		if !p.eatKeyword("function") {
			p.fail("expected 'function' after 'declare'")
		}
		name := p.parseQName()
		p.expect("(")
		var params []string
		p.skipWS()
		if !p.eat(")") {
			for {
				params = append(params, p.parseVarName())
				if !p.eat(",") {
					break
				}
			}
			p.expect(")")
		}
		p.expect("{")
		body := p.parseExpr()
		p.expect("}")
		p.expect(";")
		seen := map[string]bool{}
		for _, param := range params {
			if seen[param] {
				p.fail("duplicate parameter $%s in function %s", param, name)
			}
			seen[param] = true
		}
		for free := range FreeVars(body) {
			if !seen[free] && !strings.HasPrefix(free, "doc:") {
				p.fail("function %s references $%s, which is neither a parameter nor a document", name, free)
			}
		}
		if p.funcs == nil {
			p.funcs = map[string]funcDef{}
		}
		if _, dup := p.funcs[name]; dup {
			p.fail("function %s declared twice", name)
		}
		p.funcs[name] = funcDef{params: params, body: body}
	}
}

// parseQName parses a function name with an optional "local:" style prefix
// (the prefix is kept as part of the name).
func (p *qparser) parseQName() string {
	name := p.parseName()
	// A ':' not starting ':=' continues the qualified name.
	if p.pos < len(p.src) && p.src[p.pos] == ':' &&
		(p.pos+1 >= len(p.src) || p.src[p.pos+1] != '=') {
		p.pos++
		return name + ":" + p.parseName()
	}
	return name
}

// inlineCall expands a user-function call: arguments bind to fresh
// variables (avoiding capture of caller bindings) and the body's
// parameters are renamed to match.
func (p *qparser) inlineCall(def funcDef, args []Expr) Expr {
	rename := map[string]string{}
	for _, param := range def.params {
		p.gensym++
		rename[param] = fmt.Sprintf("arg%d%s", p.gensym, param)
	}
	body := substVars(def.body, rename)
	for i := len(def.params) - 1; i >= 0; i-- {
		body = Let{Var: rename[def.params[i]], Value: args[i], Body: body}
	}
	return body
}

// MustParse is Parse for statically known query texts; it panics on error.
func MustParse(src string) Expr {
	e, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return e
}

type qparser struct {
	src     string
	pos     int
	gensym  int      // counter for generated variables (predicates)
	context []string // stack of context-item variables for predicates
	funcs   map[string]funcDef
	depth   int // nesting levels entered (nest)
}

// maxNesting bounds how deeply expressions, conditions and constructors
// nest: the parser recurses per level, and a stack overflow is fatal, not
// a panic it could recover. XMark's queries nest 13 levels deep.
const maxNesting = 1000

// nest enters one nesting level, failing past maxNesting, and returns the
// call that leaves it; every recursive descent passes through it.
func (p *qparser) nest() func() {
	if p.depth == maxNesting {
		p.fail("query nests deeper than %d levels", maxNesting)
	}
	p.depth++
	return func() { p.depth-- }
}

type parseBail struct{ err error }

func (p *qparser) catch(f func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if b, ok := r.(parseBail); ok {
				err = b.err
				return
			}
			panic(r)
		}
	}()
	f()
	return nil
}

func (p *qparser) fail(format string, args ...any) {
	line, col := 1, 1
	for i := 0; i < p.pos && i < len(p.src); i++ {
		if p.src[i] == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	panic(parseBail{&SyntaxError{Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}})
}

// skipWS skips whitespace and XQuery comments (: like this :).
func (p *qparser) skipWS() {
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			p.pos++
		case strings.HasPrefix(p.src[p.pos:], "(:"):
			depth := 0
			for p.pos < len(p.src) {
				if strings.HasPrefix(p.src[p.pos:], "(:") {
					depth++
					p.pos += 2
				} else if strings.HasPrefix(p.src[p.pos:], ":)") {
					depth--
					p.pos += 2
					if depth == 0 {
						break
					}
				} else {
					p.pos++
				}
			}
			if depth != 0 {
				p.fail("unterminated comment")
			}
		default:
			return
		}
	}
}

// peekLit reports whether the next token starts with lit (after whitespace)
// without consuming it.
func (p *qparser) peekLit(lit string) bool {
	p.skipWS()
	return strings.HasPrefix(p.src[p.pos:], lit)
}

// eat consumes lit if it is next; reports whether it did.
func (p *qparser) eat(lit string) bool {
	if p.peekLit(lit) {
		p.pos += len(lit)
		return true
	}
	return false
}

func (p *qparser) expect(lit string) {
	if !p.eat(lit) {
		p.fail("expected %q", lit)
	}
}

// peekKeyword reports whether the next token is the given word (followed by
// a non-name character).
func (p *qparser) peekKeyword(word string) bool {
	p.skipWS()
	if !strings.HasPrefix(p.src[p.pos:], word) {
		return false
	}
	after := p.pos + len(word)
	return after >= len(p.src) || !isNameByte(p.src[after])
}

func (p *qparser) eatKeyword(word string) bool {
	if p.peekKeyword(word) {
		p.pos += len(word)
		return true
	}
	return false
}

func isNameByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
		c == '_' || c == '-' || c == '.' || c >= 0x80
}

func (p *qparser) parseName() string {
	p.skipWS()
	start := p.pos
	for p.pos < len(p.src) && isNameByte(p.src[p.pos]) {
		// A name must not start with a digit, '-' or '.'.
		if p.pos == start {
			c := p.src[p.pos]
			if c >= '0' && c <= '9' || c == '-' || c == '.' {
				break
			}
		}
		p.pos++
	}
	if p.pos == start {
		p.fail("expected a name")
	}
	return p.src[start:p.pos]
}

func (p *qparser) parseVarName() string {
	p.expect("$")
	return p.parseName()
}

// --- expression grammar ---

func (p *qparser) parseExpr() Expr {
	defer p.nest()()
	if p.peekKeyword("for") || p.peekKeyword("let") {
		return p.parseFLWR()
	}
	if p.peekKeyword("if") {
		return p.parseIf()
	}
	return p.parseOrAsExpr()
}

// parseIf parses if (c) then e1 else e2, desugared into the union of two
// complementary conditionals — exactly one contributes.
func (p *qparser) parseIf() Expr {
	p.eatKeyword("if")
	p.expect("(")
	cond := p.parseCond()
	p.expect(")")
	if !p.eatKeyword("then") {
		p.fail("expected 'then'")
	}
	thenE := p.parseExpr()
	if !p.eatKeyword("else") {
		p.fail("expected 'else' (XQuery's if requires both branches)")
	}
	elseE := p.parseExpr()
	return Call{Fn: FnConcat, Args: []Expr{
		Where{Cond: cond, Body: thenE},
		Where{Cond: Not{C: cond}, Body: elseE},
	}}
}

// parseFLWR parses for/let clauses, an optional where, and a return body,
// desugaring into nested For/Let/Where core expressions.
func (p *qparser) parseFLWR() Expr {
	type clause struct {
		isFor bool
		name  string
		pos   string
		expr  Expr
	}
	var clauses []clause
	for {
		switch {
		case p.eatKeyword("for"):
			for {
				name := p.parseVarName()
				pos := ""
				if p.eatKeyword("at") {
					pos = p.parseVarName()
					if pos == name {
						p.fail("positional variable $%s shadows the loop variable", pos)
					}
				}
				if !p.eatKeyword("in") {
					p.fail("expected 'in' in for clause")
				}
				clauses = append(clauses, clause{true, name, pos, p.parseOrAsExpr()})
				if !p.eat(",") {
					break
				}
			}
		case p.eatKeyword("let"):
			for {
				name := p.parseVarName()
				p.expect(":=")
				clauses = append(clauses, clause{false, name, "", p.parseExprNoFLWRTail()})
				if !p.eat(",") {
					break
				}
			}
		default:
			goto done
		}
	}
done:
	var cond Cond
	if p.eatKeyword("where") {
		cond = p.parseCond()
	}
	var orderKeys []Expr
	descending := false
	if p.eatKeyword("order") {
		if !p.eatKeyword("by") {
			p.fail("expected 'by' after 'order'")
		}
		for {
			orderKeys = append(orderKeys, p.parseAdditiveExpr())
			if !p.eat(",") {
				break
			}
		}
		if p.eatKeyword("descending") {
			descending = true
		} else {
			p.eatKeyword("ascending")
		}
	}
	if !p.eatKeyword("return") {
		p.fail("expected 'return' in FLWR expression")
	}
	body := p.parseExpr()

	assemble := func(inner Expr) Expr {
		if cond != nil {
			inner = Where{Cond: cond, Body: inner}
		}
		for i := len(clauses) - 1; i >= 0; i-- {
			c := clauses[i]
			if c.isFor {
				inner = For{Var: c.name, Pos: c.pos, Domain: c.expr, Body: inner}
			} else {
				inner = Let{Var: c.name, Value: c.expr, Body: inner}
			}
		}
		return inner
	}
	if orderKeys == nil {
		return assemble(body)
	}

	// order by desugars linearly: each iteration emits one wrapper tree
	// <#ord> holding a <#key> (one <#kN> part per key, atomized) next to
	// a <#val> carrying the body forest; ordby stably reorders the
	// wrapper stream by the key parts (numeric when both atoms are
	// numbers), and children/select/children peel the wrappers off
	// again. The tuple stream runs exactly once, so ordering costs one
	// sort instead of the quadratic sort + equijoin re-scan.
	hasFor := false
	for _, c := range clauses {
		if c.isFor {
			hasFor = true
		}
	}
	if !hasFor {
		p.fail("'order by' requires at least one for clause")
	}
	parts := make([]Expr, len(orderKeys))
	for i, k := range orderKeys {
		parts[i] = Call{Fn: FnNode, Label: fmt.Sprintf("<#k%d>", i+1), Args: []Expr{atomize(k)}}
	}
	key := Call{Fn: FnNode, Label: "<#key>", Args: []Expr{concatAll(parts)}}
	val := Call{Fn: FnNode, Label: "<#val>", Args: []Expr{body}}
	wrapper := Call{Fn: FnNode, Label: "<#ord>", Args: []Expr{Call{Fn: FnConcat, Args: []Expr{key, val}}}}
	dir := "asc"
	if descending {
		dir = "desc"
	}
	sorted := Call{Fn: FnOrdBy, Label: dir, Args: []Expr{assemble(wrapper)}}
	return Call{Fn: FnChildren, Args: []Expr{
		Call{Fn: FnSelect, Label: "<#val>", Args: []Expr{
			Call{Fn: FnChildren, Args: []Expr{sorted}}}}}}
}

// parseExprNoFLWRTail parses the right-hand side of a let clause: a full
// expression, including a nested FLWR when it starts with for/let.
func (p *qparser) parseExprNoFLWRTail() Expr {
	defer p.nest()()
	if p.peekKeyword("for") || p.peekKeyword("let") {
		return p.parseFLWR()
	}
	return p.parseOrAsExpr()
}

// parseOrAsExpr parses an expression at comparison precedence or above and
// requires it to denote a forest (comparisons are not forests).
func (p *qparser) parseOrAsExpr() Expr {
	e, c := p.parseComparable()
	if c != nil {
		p.fail("boolean expression used where a forest is required")
	}
	return e
}

// parseCond parses a boolean condition (where clause or predicate), with
// 'or' binding loosest, then 'and', then comparisons. A forest-valued
// expression in condition position takes its effective boolean value:
// not(empty(e)).
func (p *qparser) parseCond() Cond {
	defer p.nest()()
	c := p.parseCondAnd()
	for p.eatKeyword("or") {
		c = Or{L: c, R: p.parseCondAnd()}
	}
	return c
}

func (p *qparser) parseCondAnd() Cond {
	c := p.parseCondLeaf()
	for p.eatKeyword("and") {
		c = And{L: c, R: p.parseCondLeaf()}
	}
	return c
}

func (p *qparser) parseCondLeaf() Cond {
	// Quantified expressions: some/every $x in e satisfies c, desugared
	// through emptiness of a filtered iteration.
	if p.peekKeyword("some") || p.peekKeyword("every") {
		universal := p.peekKeyword("every")
		p.parseName() // consume the keyword
		name := p.parseVarName()
		if !p.eatKeyword("in") {
			p.fail("expected 'in' in quantified expression")
		}
		domain := p.parseOrAsExpr()
		if !p.eatKeyword("satisfies") {
			p.fail("expected 'satisfies' in quantified expression")
		}
		cond := p.parseCond()
		witness := Expr(Const{Value: xmltree.Forest{xmltree.NewText("w")}})
		if universal {
			// every: no counterexample exists.
			return Empty{E: For{Var: name, Domain: domain,
				Body: Where{Cond: Not{C: cond}, Body: witness}}}
		}
		return Not{C: Empty{E: For{Var: name, Domain: domain,
			Body: Where{Cond: cond, Body: witness}}}}
	}
	// A parenthesized condition, e.g. (empty($x) or $x = "1"). This is
	// ambiguous with parenthesized forest expressions ("($a, $b)" or
	// "($a) = $b"), so parse speculatively and back off unless the parens
	// close a complete condition.
	if p.peekLit("(") {
		savePos, saveCtx, saveSym := p.pos, len(p.context), p.gensym
		var c Cond
		err := p.catch(func() {
			p.expect("(")
			c = p.parseCond()
			p.expect(")")
		})
		if err == nil && !p.continuesExpression() {
			return c
		}
		p.pos, p.context, p.gensym = savePos, p.context[:saveCtx], saveSym
	}
	e, c := p.parseComparable()
	if c != nil {
		return c
	}
	// Effective boolean value of a forest expression.
	return Not{C: Empty{E: e}}
}

// continuesExpression reports whether the next token would extend a forest
// expression (comparison, path step, predicate), meaning a speculative
// parenthesized condition parse must be abandoned.
func (p *qparser) continuesExpression() bool {
	for _, lit := range []string{"=", "!=", "<=", ">=", ">", "/", "[", "+", "-", "*"} {
		if p.peekLit(lit) {
			return true
		}
	}
	if p.peekKeyword("div") {
		return true
	}
	return p.peekLit("<") && !p.looksLikeConstructor()
}

// parseComparable parses an arithmetic expression optionally followed by a
// comparison operator. It returns either a forest expression (cond == nil)
// or a condition. The value comparisons desugar to the existential CmpVal
// (with operand swaps and negations for the three derived operators), so
// every engine implements exactly one value ordering.
func (p *qparser) parseComparable() (Expr, Cond) {
	e, c := p.parseAdditive()
	if c != nil {
		return nil, c
	}
	p.skipWS()
	ops := []struct {
		lit string
		mk  func(l, r Expr) Cond
	}{
		{"!=", func(l, r Expr) Cond { return Not{C: Equal{L: atomize(l), R: atomize(r)}} }},
		{"<=", func(l, r Expr) Cond { return Not{C: CmpVal{L: atomize(r), R: atomize(l)}} }},
		{">=", func(l, r Expr) Cond { return Not{C: CmpVal{L: atomize(l), R: atomize(r)}} }},
		{"=", func(l, r Expr) Cond { return Equal{L: atomize(l), R: atomize(r)} }},
		{"<", func(l, r Expr) Cond { return CmpVal{L: atomize(l), R: atomize(r)} }},
		{">", func(l, r Expr) Cond { return CmpVal{L: atomize(r), R: atomize(l)} }},
	}
	for _, op := range ops {
		// '<' must not swallow an element constructor start like "<item ...".
		if op.lit == "<" && p.looksLikeConstructor() {
			break
		}
		if p.eat(op.lit) {
			r := p.parseAdditiveExpr()
			return nil, op.mk(e, r)
		}
	}
	return e, nil
}

// parseAdditive parses a chain of + and binary - over multiplicative
// expressions. Operands are atomized (arithmetic is value arithmetic);
// '-' is also a name byte, so binary minus requires surrounding spaces —
// "$x-1" is a (probably unbound) name, "$x - 1" is a subtraction.
func (p *qparser) parseAdditive() (Expr, Cond) {
	e, c := p.parseMultiplicative()
	if c != nil {
		return nil, c
	}
	for {
		var op string
		switch {
		case p.eat("+"):
			op = "+"
		case p.eat("-"):
			op = "-"
		default:
			return e, nil
		}
		r, c := p.parseMultiplicative()
		if c != nil {
			p.fail("boolean expression used as an arithmetic operand")
		}
		e = Call{Fn: FnArith, Label: op, Args: []Expr{atomize(e), atomize(r)}}
	}
}

// parseMultiplicative parses a chain of * and div over unary expressions.
func (p *qparser) parseMultiplicative() (Expr, Cond) {
	e, c := p.parseUnary()
	if c != nil {
		return nil, c
	}
	for {
		var op string
		switch {
		case p.eat("*"):
			op = "*"
		case p.eatKeyword("div"):
			op = "div"
		default:
			return e, nil
		}
		r, c := p.parseUnary()
		if c != nil {
			p.fail("boolean expression used as an arithmetic operand")
		}
		e = Call{Fn: FnArith, Label: op, Args: []Expr{atomize(e), atomize(r)}}
	}
}

// parseAdditiveExpr is parseAdditive restricted to forest expressions.
func (p *qparser) parseAdditiveExpr() Expr {
	e, c := p.parseAdditive()
	if c != nil {
		p.fail("boolean expression used where a forest is required")
	}
	return e
}

// atomize wraps an expression with data() so comparisons are value-based
// (XQuery general comparisons atomize their operands). Expressions that are
// already atomizing — including arithmetic and the numeric aggregates,
// which yield bare text atoms — are left alone.
func atomize(e Expr) Expr {
	if c, ok := e.(Call); ok {
		switch c.Fn {
		case FnData, FnCount, FnSelText, FnArith, FnSum, FnAvg, FnMin, FnMax:
			return e
		}
	}
	if _, ok := e.(Const); ok {
		return e
	}
	return Call{Fn: FnData, Args: []Expr{e}}
}

func (p *qparser) looksLikeConstructor() bool {
	p.skipWS()
	if p.pos+1 >= len(p.src) || p.src[p.pos] != '<' {
		return false
	}
	c := p.src[p.pos+1]
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

// parseUnary parses a primary expression with its trailing path steps.
// Function calls that denote conditions (empty, not, deep-equal, ...)
// yield a Cond instead.
func (p *qparser) parseUnary() (Expr, Cond) {
	e, c := p.parsePrimary()
	if c != nil {
		return nil, c
	}
	return p.parseSteps(e), nil
}

// parseSteps parses /step, //step and [predicate] suffixes. A step applied
// directly to document(...) selects among the document's root elements
// themselves (XQuery's document node is implicit in our model, where the
// catalog maps a name to the forest of roots), so document("d")/site
// matches the <site> root; later steps navigate to children as usual.
func (p *qparser) parseSteps(e Expr) Expr {
	for {
		_, isDoc := e.(Doc)
		p.skipWS()
		switch {
		case p.eat("//"):
			base := e
			if !isDoc {
				base = Call{Fn: FnChildren, Args: []Expr{e}}
			}
			e = p.parseStepName(Call{Fn: FnSubtreesDFS, Args: []Expr{base}})
		case p.eat("/"):
			if isDoc {
				e = p.parseStepName(e)
			} else {
				e = p.parseStepName(Call{Fn: FnChildren, Args: []Expr{e}})
			}
		case p.peekLit("["):
			e = p.parsePredicate(e)
		default:
			return e
		}
	}
}

// parseStepName parses the name part of a step applied to base (already
// wrapped in children/subtrees-dfs).
func (p *qparser) parseStepName(base Expr) Expr {
	p.skipWS()
	switch {
	case p.eat("@"):
		name := p.parseName()
		return Call{Fn: FnSelect, Label: "@" + name, Args: []Expr{base}}
	case p.eat("*"):
		return base
	case p.peekKeyword("text"):
		save := p.pos
		p.parseName()
		if p.eat("(") {
			p.expect(")")
			return Call{Fn: FnSelText, Args: []Expr{base}}
		}
		p.pos = save
		fallthrough
	default:
		name := p.parseName()
		return Call{Fn: FnSelect, Label: "<" + name + ">", Args: []Expr{base}}
	}
}

// parsePredicate parses [e] applied to base. Integer predicates select by
// position ([1] is head, [N] peels N-1 trees with drop), position()
// comparisons become take/drop prefixes, and other predicates filter with
// the effective boolean value, evaluated with the context item bound to
// each tree.
func (p *qparser) parsePredicate(base Expr) Expr {
	p.expect("[")
	p.skipWS()
	// Positional predicate: a bare integer.
	if n, ok := p.tryInteger(); ok {
		p.expect("]")
		if n < 1 {
			p.fail("positional predicate must be >= 1")
		}
		if n > 1 {
			base = dropN(n-1, base)
		}
		return Call{Fn: FnHead, Args: []Expr{base}}
	}
	// A position() comparison against an integer literal.
	if p.peekKeyword("position") {
		p.parseName()
		p.expect("(")
		p.expect(")")
		e := p.parsePositionBound(base)
		p.expect("]")
		return e
	}
	p.gensym++
	dot := fmt.Sprintf("dot%d", p.gensym)
	p.context = append(p.context, dot)
	cond := p.parseCond()
	p.context = p.context[:len(p.context)-1]
	p.expect("]")
	return For{Var: dot, Domain: base, Body: Where{Cond: cond, Body: Var{Name: dot}}}
}

// parsePositionBound parses the comparison tail of [position() op N] and
// desugars it into take/drop/head prefixes of base.
func (p *qparser) parsePositionBound(base Expr) Expr {
	p.skipWS()
	op := ""
	for _, lit := range []string{"<=", ">=", "<", ">", "="} {
		if p.eat(lit) {
			op = lit
			break
		}
	}
	if op == "" {
		p.fail("expected a comparison operator after position()")
	}
	n, ok := p.tryInteger()
	if !ok {
		p.fail("position() comparisons require an integer literal")
	}
	switch op {
	case "<=":
		return takeN(n, base)
	case "<":
		return takeN(n-1, base)
	case ">=":
		if n <= 1 {
			return base
		}
		return dropN(n-1, base)
	case ">":
		return dropN(n, base)
	default: // "="
		if n < 1 {
			p.fail("position() = N requires N >= 1")
		}
		if n > 1 {
			base = dropN(n-1, base)
		}
		return Call{Fn: FnHead, Args: []Expr{base}}
	}
}

// takeN keeps the first n top-level trees (none when n <= 0).
func takeN(n int64, e Expr) Expr {
	if n < 0 {
		n = 0
	}
	return Call{Fn: FnTake, Label: strconv.FormatInt(n, 10), Args: []Expr{e}}
}

// dropN removes the first n top-level trees.
func dropN(n int64, e Expr) Expr {
	if n < 0 {
		n = 0
	}
	return Call{Fn: FnDrop, Label: strconv.FormatInt(n, 10), Args: []Expr{e}}
}

func (p *qparser) tryInteger() (int64, bool) {
	p.skipWS()
	start := p.pos
	for p.pos < len(p.src) && p.src[p.pos] >= '0' && p.src[p.pos] <= '9' {
		p.pos++
	}
	if p.pos == start {
		return 0, false
	}
	// Must be immediately followed by ']' to be positional.
	save := p.pos
	p.skipWS()
	if p.pos < len(p.src) && p.src[p.pos] == ']' {
		var n int64
		for _, c := range p.src[start:save] {
			n = n*10 + int64(c-'0')
		}
		return n, true
	}
	p.pos = start
	return 0, false
}

func (p *qparser) parsePrimary() (Expr, Cond) {
	p.skipWS()
	if p.pos >= len(p.src) {
		p.fail("unexpected end of query")
	}
	switch c := p.src[p.pos]; {
	case c == '$':
		return Var{Name: p.parseVarName()}, nil
	case c == '.' && (p.pos+1 >= len(p.src) || !isDigit(p.src[p.pos+1])):
		p.pos++
		return p.contextVar(), nil
	case c == '"' || c == '\'':
		return Const{Value: xmltree.Forest{xmltree.NewText(p.parseStringLit())}}, nil
	case isDigit(c):
		return Const{Value: xmltree.Forest{xmltree.NewText(p.parseNumberLit())}}, nil
	case c == '(':
		return p.parseParenExpr(), nil
	case c == '<':
		if !p.looksLikeConstructor() {
			p.fail("unexpected '<'")
		}
		return p.parseConstructor(), nil
	case c == '@' || isNameStart(c):
		return p.parseNameStart()
	default:
		p.fail("unexpected character %q", string(c))
		return nil, nil
	}
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isNameStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c >= 0x80
}

func (p *qparser) contextVar() Expr {
	if len(p.context) == 0 {
		p.fail("'.' used outside a predicate")
	}
	return Var{Name: p.context[len(p.context)-1]}
}

func (p *qparser) parseStringLit() string {
	quote := p.src[p.pos]
	p.pos++
	var b strings.Builder
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == quote {
			// Doubled quote escapes itself.
			if p.pos+1 < len(p.src) && p.src[p.pos+1] == quote {
				b.WriteByte(quote)
				p.pos += 2
				continue
			}
			p.pos++
			return b.String()
		}
		b.WriteByte(c)
		p.pos++
	}
	p.fail("unterminated string literal")
	return ""
}

func (p *qparser) parseNumberLit() string {
	start := p.pos
	for p.pos < len(p.src) && (isDigit(p.src[p.pos]) || p.src[p.pos] == '.') {
		p.pos++
	}
	return p.src[start:p.pos]
}

// parseParenExpr parses () as the empty forest and (e1, e2, ...) as a
// concatenation.
func (p *qparser) parseParenExpr() Expr {
	p.expect("(")
	if p.eat(")") {
		return Const{Value: nil}
	}
	e := p.parseExpr()
	for p.eat(",") {
		e = Call{Fn: FnConcat, Args: []Expr{e, p.parseExpr()}}
	}
	p.expect(")")
	return e
}

// parseNameStart parses expressions beginning with a name: function calls,
// or relative path steps from the predicate context item.
func (p *qparser) parseNameStart() (Expr, Cond) {
	if p.src[p.pos] == '@' {
		p.pos++
		name := p.parseName()
		base := Call{Fn: FnChildren, Args: []Expr{p.contextVar()}}
		return Call{Fn: FnSelect, Label: "@" + name, Args: []Expr{base}}, nil
	}
	save := p.pos
	name := p.parseQName()
	p.skipWS()
	if p.pos < len(p.src) && p.src[p.pos] == '(' && name != "text" {
		if def, ok := p.funcs[name]; ok {
			p.expect("(")
			var args []Expr
			p.skipWS()
			if !p.eat(")") {
				for {
					args = append(args, p.parseExpr())
					if !p.eat(",") {
						break
					}
				}
				p.expect(")")
			}
			if len(args) != len(def.params) {
				p.fail("function %s expects %d arguments, got %d", name, len(def.params), len(args))
			}
			return p.inlineCall(def, args), nil
		}
		return p.parseFunctionCall(name)
	}
	// Relative child step from the context item (inside predicates), e.g.
	// [price = "42"]. text() is handled as a step.
	p.pos = save
	if len(p.context) == 0 {
		p.fail("unknown expression starting with name %q (relative paths need a predicate context)", name)
	}
	return p.parseStepName(Call{Fn: FnChildren, Args: []Expr{p.contextVar()}}), nil
}

func (p *qparser) parseFunctionCall(name string) (Expr, Cond) {
	p.expect("(")
	var args []Expr
	parseArgs := func(n int) {
		for i := 0; i < n; i++ {
			if i > 0 {
				p.expect(",")
			}
			args = append(args, p.parseExpr())
		}
		p.expect(")")
	}
	switch name {
	case "document", "doc":
		p.skipWS()
		if p.pos >= len(p.src) || (p.src[p.pos] != '"' && p.src[p.pos] != '\'') {
			p.fail("document() requires a string literal")
		}
		docName := p.parseStringLit()
		p.expect(")")
		return Doc{Name: docName}, nil
	case "count":
		parseArgs(1)
		return Call{Fn: FnCount, Args: args}, nil
	case "data", "string":
		parseArgs(1)
		return Call{Fn: FnData, Args: args}, nil
	case "head":
		parseArgs(1)
		return Call{Fn: FnHead, Args: args}, nil
	case "last":
		parseArgs(1)
		return Call{Fn: FnHead, Args: []Expr{Call{Fn: FnReverse, Args: args}}}, nil
	case "sum":
		parseArgs(1)
		return Call{Fn: FnSum, Args: []Expr{atomize(args[0])}}, nil
	case "avg":
		parseArgs(1)
		return Call{Fn: FnAvg, Args: []Expr{atomize(args[0])}}, nil
	case "min":
		// Numeric minimum over the atomized argument (empty if no atom
		// is a number), like the other aggregates.
		parseArgs(1)
		return Call{Fn: FnMin, Args: []Expr{atomize(args[0])}}, nil
	case "max":
		parseArgs(1)
		return Call{Fn: FnMax, Args: []Expr{atomize(args[0])}}, nil
	case "take", "drop":
		p.skipWS()
		start := p.pos
		for p.pos < len(p.src) && isDigit(p.src[p.pos]) {
			p.pos++
		}
		if p.pos == start {
			p.fail("%s() requires an integer count", name)
		}
		n, err := strconv.ParseInt(p.src[start:p.pos], 10, 64)
		if err != nil {
			p.fail("%s() count out of range", name)
		}
		p.expect(",")
		e := p.parseExpr()
		p.expect(")")
		if name == "take" {
			return takeN(n, e), nil
		}
		return dropN(n, e), nil
	case "ordby":
		p.skipWS()
		if p.pos >= len(p.src) || (p.src[p.pos] != '"' && p.src[p.pos] != '\'') {
			p.fail("ordby() requires a string literal direction")
		}
		dir := p.parseStringLit()
		if dir != "asc" && dir != "desc" {
			p.fail("ordby() direction must be \"asc\" or \"desc\"")
		}
		p.expect(",")
		e := p.parseExpr()
		p.expect(")")
		return Call{Fn: FnOrdBy, Label: dir, Args: []Expr{e}}, nil
	case "tail":
		parseArgs(1)
		return Call{Fn: FnTail, Args: args}, nil
	case "reverse":
		parseArgs(1)
		return Call{Fn: FnReverse, Args: args}, nil
	case "distinct":
		parseArgs(1)
		return Call{Fn: FnDistinct, Args: args}, nil
	case "sort":
		parseArgs(1)
		return Call{Fn: FnSort, Args: args}, nil
	case "roots":
		parseArgs(1)
		return Call{Fn: FnRoots, Args: args}, nil
	case "children":
		parseArgs(1)
		return Call{Fn: FnChildren, Args: args}, nil
	case "subtrees-dfs":
		parseArgs(1)
		return Call{Fn: FnSubtreesDFS, Args: args}, nil
	case "select":
		p.skipWS()
		if p.pos >= len(p.src) || (p.src[p.pos] != '"' && p.src[p.pos] != '\'') {
			p.fail("select() requires a string literal label")
		}
		label := p.parseStringLit()
		p.expect(",")
		e := p.parseExpr()
		p.expect(")")
		return Call{Fn: FnSelect, Label: label, Args: []Expr{e}}, nil
	case "concat":
		parseArgs(2)
		return Call{Fn: FnConcat, Args: args}, nil
	case "node", "element":
		p.skipWS()
		if p.pos >= len(p.src) || (p.src[p.pos] != '"' && p.src[p.pos] != '\'') {
			p.fail("%s() requires a string literal label", name)
		}
		label := p.parseStringLit()
		p.expect(",")
		e := p.parseExpr()
		p.expect(")")
		if name == "element" {
			label = "<" + label + ">"
		}
		return Call{Fn: FnNode, Label: label, Args: []Expr{e}}, nil
	case "empty":
		parseArgs(1)
		return nil, Empty{E: args[0]}
	case "exists":
		parseArgs(1)
		return nil, Not{C: Empty{E: args[0]}}
	case "not":
		c := p.parseCond()
		p.expect(")")
		return nil, Not{C: c}
	case "true":
		p.expect(")")
		return nil, Empty{E: Const{Value: nil}}
	case "false":
		p.expect(")")
		return nil, Not{C: Empty{E: Const{Value: nil}}}
	case "contains":
		parseArgs(2)
		return nil, Contains{L: args[0], R: args[1]}
	case "deep-equal":
		parseArgs(2)
		return nil, Equal{L: args[0], R: args[1]}
	case "deep-less":
		parseArgs(2)
		return nil, Less{L: args[0], R: args[1]}
	default:
		p.fail("unknown function %q", name)
		return nil, nil
	}
}

// --- element constructors ---

// parseConstructor parses a literal element constructor with embedded
// {expr} holes, producing node/concat core expressions.
func (p *qparser) parseConstructor() Expr {
	defer p.nest()()
	p.expect("<")
	tag := p.parseName()
	var parts []Expr
	// Attributes.
	for {
		p.skipWS()
		if p.pos >= len(p.src) {
			p.fail("unterminated constructor <%s>", tag)
		}
		if p.src[p.pos] == '>' || strings.HasPrefix(p.src[p.pos:], "/>") {
			break
		}
		attr := p.parseName()
		p.skipWS()
		p.expect("=")
		p.skipWS()
		parts = append(parts, p.parseAttrConstructor(attr))
	}
	if p.eat("/>") {
		return Call{Fn: FnNode, Label: "<" + tag + ">", Args: []Expr{concatAll(parts)}}
	}
	p.expect(">")
	parts = append(parts, p.parseConstructorContent(tag)...)
	return Call{Fn: FnNode, Label: "<" + tag + ">", Args: []Expr{concatAll(parts)}}
}

// parseAttrConstructor parses name="value with {holes}" producing a
// node("@name", ...) expression.
func (p *qparser) parseAttrConstructor(name string) Expr {
	if p.pos >= len(p.src) || (p.src[p.pos] != '"' && p.src[p.pos] != '\'') {
		p.fail("expected quoted attribute value")
	}
	quote := p.src[p.pos]
	p.pos++
	var parts []Expr
	var text strings.Builder
	flush := func() {
		if text.Len() > 0 {
			parts = append(parts, Const{Value: xmltree.Forest{xmltree.NewText(text.String())}})
			text.Reset()
		}
	}
	for {
		if p.pos >= len(p.src) {
			p.fail("unterminated attribute value")
		}
		c := p.src[p.pos]
		switch {
		case c == quote:
			p.pos++
			flush()
			return Call{Fn: FnNode, Label: "@" + name, Args: []Expr{concatAll(parts)}}
		case c == '{':
			if p.pos+1 < len(p.src) && p.src[p.pos+1] == '{' {
				text.WriteByte('{')
				p.pos += 2
				continue
			}
			p.pos++
			flush()
			e := p.parseExpr()
			p.expect("}")
			parts = append(parts, atomize(e))
		case c == '}':
			if p.pos+1 < len(p.src) && p.src[p.pos+1] == '}' {
				text.WriteByte('}')
				p.pos += 2
				continue
			}
			p.fail("unescaped '}' in attribute value")
		case c == '&':
			text.WriteString(p.parseEntityRef())
		default:
			text.WriteByte(c)
			p.pos++
		}
	}
}

// parseConstructorContent parses element content up to </tag>, producing a
// list of constant and expression parts.
func (p *qparser) parseConstructorContent(tag string) []Expr {
	var parts []Expr
	var text strings.Builder
	flush := func(trim bool) {
		s := text.String()
		text.Reset()
		if trim {
			s = strings.TrimSpace(s)
		}
		if s != "" {
			parts = append(parts, Const{Value: xmltree.Forest{xmltree.NewText(s)}})
		}
	}
	for {
		if p.pos >= len(p.src) {
			p.fail("unterminated element <%s>", tag)
		}
		c := p.src[p.pos]
		switch {
		case strings.HasPrefix(p.src[p.pos:], "</"):
			flush(true)
			p.pos += 2
			got := p.parseName()
			if got != tag {
				p.fail("mismatched </%s>, expected </%s>", got, tag)
			}
			p.skipWS()
			p.expect(">")
			return parts
		case c == '<':
			flush(true)
			parts = append(parts, p.parseConstructor())
		case c == '{':
			if p.pos+1 < len(p.src) && p.src[p.pos+1] == '{' {
				text.WriteByte('{')
				p.pos += 2
				continue
			}
			flush(true)
			p.pos++
			e := p.parseExpr()
			p.expect("}")
			parts = append(parts, e)
		case c == '}':
			if p.pos+1 < len(p.src) && p.src[p.pos+1] == '}' {
				text.WriteByte('}')
				p.pos += 2
				continue
			}
			p.fail("unescaped '}' in element content")
		case c == '&':
			text.WriteString(p.parseEntityRef())
		default:
			text.WriteByte(c)
			p.pos++
		}
	}
}

func (p *qparser) parseEntityRef() string {
	end := strings.IndexByte(p.src[p.pos:], ';')
	if end < 0 || end > 8 {
		p.fail("malformed entity reference")
	}
	ent := p.src[p.pos+1 : p.pos+end]
	p.pos += end + 1
	switch ent {
	case "lt":
		return "<"
	case "gt":
		return ">"
	case "amp":
		return "&"
	case "apos":
		return "'"
	case "quot":
		return `"`
	}
	p.fail("unknown entity &%s;", ent)
	return ""
}

// concatAll folds a list of parts into nested concat calls; the empty list
// is the empty forest.
func concatAll(parts []Expr) Expr {
	if len(parts) == 0 {
		return Const{Value: nil}
	}
	e := parts[0]
	for _, next := range parts[1:] {
		e = Call{Fn: FnConcat, Args: []Expr{e, next}}
	}
	return e
}

// Package interp is the reference evaluator for the core language: a
// direct, mutually recursive implementation of the denotational semantics
// of Figure 3 of the paper.
//
// It is deliberately naive. FLWR iteration materializes every binding and
// re-evaluates the body per tree, so a nested for-loop with a correlated
// condition costs the product of the loop cardinalities — the nested-loop
// behaviour the paper measures in Galax, Kweelt, IPSI-XQ and QuiP. The
// interpreter therefore serves two roles: the correctness oracle for the
// dynamic interval engine, and the stand-in baseline for those systems in
// the experiments.
package interp

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"dixq/internal/xfn"
	"dixq/internal/xmltree"
	"dixq/internal/xq"
)

// Env maps variable names to forests (the E of Figure 3). Environments are
// persistent: Bind returns a new environment sharing the parent.
type Env struct {
	parent *Env
	name   string
	value  xmltree.Forest
}

// Bind returns an environment extending e with name = value.
func (e *Env) Bind(name string, value xmltree.Forest) *Env {
	return &Env{parent: e, name: name, value: value}
}

// Lookup returns the forest bound to name.
func (e *Env) Lookup(name string) (xmltree.Forest, bool) {
	for cur := e; cur != nil; cur = cur.parent {
		if cur.name == name {
			return cur.value, true
		}
	}
	return nil, false
}

// Catalog supplies the documents referenced by document(...) expressions.
type Catalog map[string]xmltree.Forest

// ErrBudgetExceeded is returned by EvalBudget when its step limit is hit.
var ErrBudgetExceeded = errors.New("interp: budget exceeded")

// EvalBudget is Eval under a run context and a work limit: it fails with
// the context's error once ctx is done, polled on the first loop-body
// evaluation and every 2^10 after, and with ErrBudgetExceeded past
// maxSteps loop-body evaluations (0 means no cap).
func EvalBudget(ctx context.Context, e xq.Expr, env *Env, docs Catalog, maxSteps int64) (xmltree.Forest, error) {
	ev := &evaluator{ctx: ctx, docs: docs, maxSteps: maxSteps}
	return ev.eval(e, env)
}

// Eval evaluates a core expression in the given environment and catalog,
// implementing the semantic equations of Figure 3.
func Eval(e xq.Expr, env *Env, docs Catalog) (xmltree.Forest, error) {
	return EvalBudget(context.Background(), e, env, docs, 0)
}

type evaluator struct {
	ctx             context.Context
	docs            Catalog
	maxSteps, steps int64
}

// step charges one loop-body evaluation.
func (ev *evaluator) step() error {
	ev.steps++
	if ev.maxSteps > 0 && ev.steps > ev.maxSteps {
		return ErrBudgetExceeded
	}
	if ev.steps%(1<<10) == 1 {
		return ev.ctx.Err()
	}
	return nil
}

func (ev *evaluator) eval(e xq.Expr, env *Env) (xmltree.Forest, error) {
	docs := ev.docs
	switch e := e.(type) {
	case xq.Var:
		v, ok := env.Lookup(e.Name)
		if !ok {
			return nil, fmt.Errorf("interp: unbound variable $%s", e.Name)
		}
		return v, nil
	case xq.Doc:
		d, ok := docs[e.Name]
		if !ok {
			return nil, fmt.Errorf("interp: unknown document %q", e.Name)
		}
		return d, nil
	case xq.Const:
		return e.Value, nil
	case xq.Call:
		return ev.evalCall(e, env)
	case xq.Let:
		v, err := ev.eval(e.Value, env)
		if err != nil {
			return nil, err
		}
		return ev.eval(e.Body, env.Bind(e.Var, v))
	case xq.Where:
		ok, err := ev.evalCond(e.Cond, env)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, nil
		}
		return ev.eval(e.Body, env)
	case xq.For:
		dom, err := ev.eval(e.Domain, env)
		if err != nil {
			return nil, err
		}
		var out xmltree.Forest
		for i, tree := range dom {
			if err := ev.step(); err != nil {
				return nil, err
			}
			bodyEnv := env.Bind(e.Var, xmltree.Forest{tree})
			if e.Pos != "" {
				bodyEnv = bodyEnv.Bind(e.Pos, xmltree.Forest{xmltree.NewText(strconv.Itoa(i + 1))})
			}
			r, err := ev.eval(e.Body, bodyEnv)
			if err != nil {
				return nil, err
			}
			out = append(out, r...)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("interp: unknown expression %T", e)
	}
}

func (ev *evaluator) evalCall(e xq.Call, env *Env) (xmltree.Forest, error) {
	args := make([]xmltree.Forest, len(e.Args))
	for i, a := range e.Args {
		v, err := ev.eval(a, env)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	arg := func(i int) xmltree.Forest {
		if i < len(args) {
			return args[i]
		}
		return nil
	}
	switch e.Fn {
	case xq.FnNode:
		return xfn.Node(e.Label, arg(0)), nil
	case xq.FnConcat:
		return xfn.Concat(arg(0), arg(1)), nil
	case xq.FnHead:
		return xfn.Head(arg(0)), nil
	case xq.FnTail:
		return xfn.Tail(arg(0)), nil
	case xq.FnReverse:
		return xfn.Reverse(arg(0)), nil
	case xq.FnSelect:
		return xfn.Select(e.Label, arg(0)), nil
	case xq.FnDistinct:
		return xfn.Distinct(arg(0)), nil
	case xq.FnSort:
		return xfn.Sort(arg(0)), nil
	case xq.FnRoots:
		return xfn.Roots(arg(0)), nil
	case xq.FnChildren:
		return xfn.Children(arg(0)), nil
	case xq.FnSubtreesDFS:
		return xfn.SubtreesDFS(arg(0)), nil
	case xq.FnData:
		return xfn.Data(arg(0)), nil
	case xq.FnSelText:
		return xfn.SelText(arg(0)), nil
	case xq.FnCount:
		return xfn.Count(arg(0)), nil
	case xq.FnSum:
		return xfn.Sum(arg(0)), nil
	case xq.FnAvg:
		return xfn.Avg(arg(0)), nil
	case xq.FnMin:
		return xfn.Min(arg(0)), nil
	case xq.FnMax:
		return xfn.Max(arg(0)), nil
	case xq.FnArith:
		return xfn.Arith(e.Label, arg(0), arg(1)), nil
	case xq.FnTake:
		return xfn.Take(callCount(e), arg(0)), nil
	case xq.FnDrop:
		return xfn.Drop(callCount(e), arg(0)), nil
	case xq.FnOrdBy:
		return xfn.OrdBy(e.Label, arg(0)), nil
	default:
		return nil, fmt.Errorf("interp: unknown function %q", e.Fn)
	}
}

// callCount reads the decimal count a take/drop call carries in Label.
func callCount(e xq.Call) int64 {
	n, err := strconv.ParseInt(e.Label, 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// EvalCond evaluates a boolean condition.
func EvalCond(c xq.Cond, env *Env, docs Catalog) (bool, error) {
	return (&evaluator{ctx: context.Background(), docs: docs}).evalCond(c, env)
}

func (ev *evaluator) evalCond(c xq.Cond, env *Env) (bool, error) {
	switch c := c.(type) {
	case xq.Equal:
		l, err := ev.eval(c.L, env)
		if err != nil {
			return false, err
		}
		r, err := ev.eval(c.R, env)
		if err != nil {
			return false, err
		}
		return xfn.Equal(l, r), nil
	case xq.Less:
		l, err := ev.eval(c.L, env)
		if err != nil {
			return false, err
		}
		r, err := ev.eval(c.R, env)
		if err != nil {
			return false, err
		}
		return xfn.Less(l, r), nil
	case xq.CmpVal:
		l, err := ev.eval(c.L, env)
		if err != nil {
			return false, err
		}
		r, err := ev.eval(c.R, env)
		if err != nil {
			return false, err
		}
		return xfn.CompareValue(l, r), nil
	case xq.Empty:
		v, err := ev.eval(c.E, env)
		if err != nil {
			return false, err
		}
		return xfn.Empty(v), nil
	case xq.Contains:
		l, err := ev.eval(c.L, env)
		if err != nil {
			return false, err
		}
		r, err := ev.eval(c.R, env)
		if err != nil {
			return false, err
		}
		return strings.Contains(l.TextValue(), r.TextValue()), nil
	case xq.Not:
		v, err := ev.evalCond(c.C, env)
		if err != nil {
			return false, err
		}
		return !v, nil
	case xq.And:
		l, err := ev.evalCond(c.L, env)
		if err != nil || !l {
			return false, err
		}
		return ev.evalCond(c.R, env)
	case xq.Or:
		l, err := ev.evalCond(c.L, env)
		if err != nil || l {
			return l, err
		}
		return ev.evalCond(c.R, env)
	default:
		return false, fmt.Errorf("interp: unknown condition %T", c)
	}
}

// Run parses and evaluates a query against a catalog with an empty initial
// environment — the convenience entry point used by tests and examples.
func Run(query string, docs Catalog) (xmltree.Forest, error) {
	e, err := xq.Parse(query)
	if err != nil {
		return nil, err
	}
	return Eval(e, nil, docs)
}

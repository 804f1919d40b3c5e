package engine

import (
	"context"
	"errors"
	"slices"
	"strconv"
	"strings"

	"dixq/internal/interval"
	"dixq/internal/xmltree"
)

// ErrBudgetExceeded is returned when a run embeds more tuples than its
// Budget allows, the paper's 1 GB cutoff ("IM" in Figures 8, 9 and 11);
// package dixq reports a run's deadline, the two-hour cutoff ("DNF"), as
// this error too.
var ErrBudgetExceeded = errors.New("engine: budget exceeded")

// Budget bounds one run of the potentially explosive operators: the
// tuples they embed, and the run's context. The zero value and the nil
// pointer mean "unlimited".
type Budget struct {
	// MaxTuples caps the total number of tuples produced through this
	// budget; 0 means no cap.
	MaxTuples int64

	used int64
	ctx  context.Context
	done <-chan struct{}
}

// NewBudget returns the budget of a run that stops once ctx is done (nil:
// never), or after maxTuples embedded tuples when maxTuples > 0.
func NewBudget(ctx context.Context, maxTuples int64) *Budget {
	b := &Budget{MaxTuples: maxTuples, ctx: ctx}
	if ctx != nil {
		b.done = ctx.Done()
	}
	return b
}

// Err returns the run context's error once it is done, and nil before
// (always nil for a nil budget). It polls the cached Done channel with a
// non-blocking receive: the context's own Err takes a lock, too dear for
// every operator entry.
func (b *Budget) Err() error {
	if b == nil {
		return nil
	}
	select {
	case <-b.done:
		return b.ctx.Err()
	default:
		return nil
	}
}

// charge consumes n tuples of budget and returns the error that stops
// the run, if any.
func (b *Budget) charge(n int64) error {
	if b != nil && b.MaxTuples > 0 {
		if b.used += n; b.used > b.MaxTuples {
			return ErrBudgetExceeded
		}
	}
	return b.Err()
}

// EnterIndex computes the new environment index I' for "for x ∈ e do e'"
// (Section 4.2.4): one environment per top-level tree of the domain forest,
// ordered by document order. With dynamic intervals as digit vectors the
// new index entry for a root r in environment i is simply r's full L key
// (the paper's i·w_e + r.l), whose first depth digits are i and whose
// remaining k digits are r's local position. The new depth is depth + k
// where k is the domain's local width.
func EnterIndex(domainRoots *interval.Relation) Index {
	out := make(Index, len(domainRoots.Tuples))
	for i, t := range domainRoots.Tuples {
		out[i] = t.L
	}
	return out
}

// Positions computes the table binding an "at $i" positional variable:
// one text tuple per new environment holding the root's 1-based position
// within its source environment (positions restart when the oldDepth
// prefix changes). One pass over the domain roots.
func Positions(domainRoots *interval.Relation, oldDepth, newDepth int) *interval.Relation {
	b := interval.NewBuilder(newDepth+1, len(domainRoots.Tuples))
	n := 0
	var prev interval.Key
	for i, r := range domainRoots.Tuples {
		if i == 0 || r.L.ComparePrefix(prev, oldDepth) != 0 {
			n = 0
		}
		n++
		prev = r.L
		b.SetBase(r.L, newDepth)
		b.Emit(strconv.Itoa(n), 0, 1)
	}
	return b.Relation()
}

// BindVar computes T'_x, the table binding the loop variable to one tree
// per new environment: the tuples of the subtree rooted at r are
// re-prefixed with the new environment key r.L, keeping their original
// local coordinates (the paper's l−i·w_e term). depth is the old
// environment depth; newDepth = depth + k is the new one. One merge pass.
func BindVar(domain, domainRoots *interval.Relation, depth, newDepth int) *interval.Relation {
	b := interval.NewBuilder(newDepth+localWidth(domain, depth), len(domain.Tuples))
	pos := 0
	for _, r := range domainRoots.Tuples {
		b.SetBase(r.L, newDepth)
		for pos < len(domain.Tuples) && interval.Compare(domain.Tuples[pos].L, r.L) < 0 {
			pos++
		}
		for pos < len(domain.Tuples) && interval.Compare(domain.Tuples[pos].L, r.R) < 0 {
			t := domain.Tuples[pos]
			b.Rebase(t.S, t.L, t.R, depth)
			pos++
		}
	}
	return b.Relation()
}

// EmbedOuter computes T'_e_j: it re-embeds an outer-environment table into
// every new environment derived from it, duplicating each old group once
// per new environment with that prefix. This is the cross-product step of
// the literal translation — output size |newIndex per old env| × |group|,
// the quadratic heart of DI-NLJ plans. The budget, charged per new
// environment, stops even one long call (nil means unlimited).
func EmbedOuter(newIndex Index, oldDepth, newDepth int, rel *interval.Relation, budget *Budget) (*interval.Relation, error) {
	b := interval.NewBuilder(newDepth+localWidth(rel, oldDepth), len(rel.Tuples))
	pos := 0
	var group []interval.Tuple
	var groupEnv interval.Key
	haveGroup := false
	for _, env := range newIndex {
		// Advance to the old-environment group owning this new environment.
		if !haveGroup || groupEnv.ComparePrefix(env, oldDepth) != 0 {
			for pos < len(rel.Tuples) && prefixCmp(rel.Tuples[pos].L, env, oldDepth) < 0 {
				pos++
			}
			start := pos
			for pos < len(rel.Tuples) && prefixCmp(rel.Tuples[pos].L, env, oldDepth) == 0 {
				pos++
			}
			group = rel.Tuples[start:pos]
			groupEnv = env
			haveGroup = true
		}
		if err := budget.charge(int64(len(group))); err != nil {
			return nil, err
		}
		b.SetBase(env, newDepth)
		for _, t := range group {
			b.Rebase(t.S, t.L, t.R, oldDepth)
		}
	}
	return b.Relation(), nil
}

// FilterIndex keeps the index entries whose aligned keep flag is true —
// the I' of the conditional template (Section 4.2.3). When every flag is
// true it returns the index itself.
func FilterIndex(index Index, keep []bool) Index {
	if !slices.Contains(keep, false) {
		return index
	}
	out := make(Index, 0, len(index))
	for i, env := range index {
		if keep[i] {
			out = append(out, env)
		}
	}
	return out
}

// SemiJoin keeps the tuples whose environment prefix appears in the index
// — the T'_e_i views of the conditional template. One merge pass; the
// kept rows are recorded as runs, so a semi-join that keeps one
// contiguous stretch of rel is a view of it.
func SemiJoin(rel *interval.Relation, index Index, depth int) *interval.Relation {
	var runs interval.Runs
	pos := 0
	for i, t := range rel.Tuples {
		for pos < len(index) && t.L.ComparePrefix(index[pos], depth) > 0 {
			pos++
		}
		if pos < len(index) && t.L.ComparePrefix(index[pos], depth) == 0 {
			runs.Add(i, i+1)
		}
	}
	return &interval.Relation{Tuples: runs.Of(rel.Tuples)}
}

// EmptyPerEnv evaluates the empty(e) condition for every environment of
// the index, in index order.
func EmptyPerEnv(index Index, depth int, rel *interval.Relation) []bool {
	out := make([]bool, 0, len(index))
	forEachEnv(index, depth, rel.Tuples, func(_ interval.Key, g []interval.Tuple) {
		out = append(out, len(g) == 0)
	})
	return out
}

// ContainsPerEnv evaluates the substring condition contains(a, b) for
// every environment of the index: the concatenated text content of a's
// forest must contain b's as a substring. One merge pass per table.
func ContainsPerEnv(index Index, depth int, a, b *interval.Relation) []bool {
	out := make([]bool, 0, len(index))
	forEachEnv2(index, depth, a.Tuples, b.Tuples, func(_ interval.Key, ga, gb []interval.Tuple) {
		out = append(out, strings.Contains(textOf(ga), textOf(gb)))
	})
	return out
}

// textOf concatenates the text-node labels of an encoded forest in
// document order — its string value.
func textOf(g []interval.Tuple) string {
	var sb strings.Builder
	for _, t := range g {
		if (&xmltree.Node{Label: t.S}).Kind() == xmltree.Text {
			sb.WriteString(t.S)
		}
	}
	return sb.String()
}

// ComparePerEnv evaluates the structural comparison of two tables for
// every environment of the index, returning -1/0/+1 per environment. It is
// the per-environment application of the DeepCompare operator.
func ComparePerEnv(index Index, depth int, a, b *interval.Relation) []int {
	out := make([]int, 0, len(index))
	forEachEnv2(index, depth, a.Tuples, b.Tuples, func(_ interval.Key, ga, gb []interval.Tuple) {
		out = append(out, CompareForests(ga, gb))
	})
	return out
}

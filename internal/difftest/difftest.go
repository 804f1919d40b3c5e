// Package difftest is the cross-engine differential harness: one shared
// corpus of queries and documents, executed through every evaluation
// strategy the repository ships — the denotational interpreter (the
// semantic oracle), the cost-based DI-OPT mode (with and without real
// statistics) and the forced DI-MSJ and DI-NLJ plan modes, each with
// structural indexes, a spilling memory budget and parallel workers
// switched on one at a time — asserting digit-identical results.
//
// The comparisons happen at two levels:
//
//   - against the interpreter, results are compared as decoded forests
//     (the interpreter has no interval encoding, so forest equality is
//     the strongest available check);
//   - between DI variants, result relations are compared tuple-for-tuple
//     including the physical digit count of every key. The variants are
//     purely algorithmic switches, so nothing weaker than digit identity
//     is acceptable: a spilled, three-worker, index-served run must be
//     indistinguishable from the serial in-memory run.
//
// Tests that need one engine pair live with their package; tests whose
// point is "all engines agree on the shared corpus" live here, so the
// corpus and the variant matrix exist exactly once.
//
// # Why the matrix is not a cross product
//
// Variants lists 15 configurations per corpus case where the full cross
// of engine x batch size x parallelism x budget x index x statistics once
// had 106. The pruning was checked by a mutation run: operator bugs were
// seeded by hand, one at a time, into the full matrix and into the pruned
// one, and TestEnginesAgreeOnCorpus was run against each. Every bug the
// full cross killed, the pruned matrix killed too. "cases" is how many
// corpus cases failed (of 33 for the rows marked *, 39 for the one marked
// +, 40 for the pipeline rows, which were re-seeded into the row-filter
// runner of package pipeline, and 41 for the two marked #, which were
// re-seeded into the one budgeted sort, engine.SortUnits, that every group
// reorder now runs through), "first" the configuration (or the
// interpreter check of the baseline) that failed first in the first
// failing case. The baseline runs the fused path chains, so a bug in a
// serial stage fails the interpreter check before any variant runs.
//
//	seeded bug                                          full cross (parent)      this matrix
//	pipeline: head takes the first tree's end from L    4 cases, default         6 cases, interpreter
//	pipeline: head/tail first-tree test inverted        4 cases, default         6 cases, interpreter
//	pipeline: parallel chain splits inside trees        2 cases, default         19 cases, DI-OPT-par3
//	pipeline: fused seek keeps a stale range position   survived                 1 case, DI-OPT-idx
//	pipeline: last parallel morsel ends a row early     survived                 2 cases, DI-OPT-par3
//	interval: SortPerm drops the position tie-break     1 case, interpreter      1 case, interpreter *
//	interval: exchange merge takes the larger head      5 cases, MSJ-batch1-par4 1 case, DI-OPT-par3 *
//	core: probeMerge partition bound < instead of <=    3 cases, default         3 cases, DI-MSJ-par3 *
//	core: merge join emits inner matches reversed       3 cases, interpreter     3 cases, interpreter *
//	extsort: merge skips the first spilled run          6 cases, batch3-par3-b1  6 cases, DI-MSJ-budget1 *
//	engine: spilled permutation returns insertion order 1 case, batch3-par3-b1   8 cases, DI-OPT-budget1 #
//	engine: distinct keeps the last duplicate           1 case, interpreter      1 case, interpreter *
//	engine: EmbedOuter drops each group's last tuple    13 cases, interpreter    13 cases, interpreter *
//	index: resolved subtree range ends one row early    11 cases, nlj-scalar-idx 11 cases, DI-OPT-idx *
//	opt: demoted merge join filters by < instead of =   4 cases, OPT-batch1      4 cases, DI-OPT-base *
//	core: depth-0 seek served after a dropping where    survived                 1 case, DI-OPT-idx +
//	engine: spilled merge-join sort ignores the prefix  survived                 1 case, DI-MSJ-budget1 #
//
// Four seeded bugs first survived both matrices alike, so they were gaps
// of the corpus, not of the pruning, and corpus cases close all four.
// A multi-range seek fused into the data() chain above it
// (xmark-seek-fused-multirange) kills the seek source that keeps its
// position between ranges. A seek under a depth-0 where clause that drops
// the only environment (xmark-seek-dropped-env) kills the seek that serves
// its rows there anyway; TestLoopInvariantSeeksInsideLoops kills it too.
// The last-morsel bug needs a chain input long enough to split into
// morsels whose last row survives the chain: xmark-desc-multirange happens
// to have one, xmark-par-chain-last-row is built to, and
// TestParallelChainMatchesSerial in package pipeline kills it without the
// corpus. The last, a spilled merge-join side sort that ignores the
// ancestor prefix, needs a merge join below a loop whose equal keys sit
// under different ancestor environments: xmark-join-under-person joins
// each person's children against their own text, and DI-MSJ-budget1
// kills it. All 17 are killed.
package difftest

import (
	"fmt"
	"testing"

	"dixq/internal/core"
	"dixq/internal/index"
	"dixq/internal/interp"
	"dixq/internal/interval"
	"dixq/internal/stats"
	"dixq/internal/xmark"
	"dixq/internal/xmltree"
	"dixq/internal/xq"
)

// Case is one corpus entry: a query over one of the shared documents.
type Case struct {
	Name  string
	Query string
	// Generated selects the generated XMark document ("auction.xml");
	// false selects the small hand-written document ("d").
	Generated bool
}

// Corpus is the shared query corpus. The first group is the end-to-end
// fuzz seed corpus over a small hand-written document — queries chosen to
// cover the breadth of the core language (paths, correlated loops,
// let/where, order by, quantifiers, user functions, aggregation,
// arithmetic, positional predicates). The second group is the full XMark
// suite expressible in the fragment (Q1-Q20) plus sort/distinct-heavy
// queries over a generated XMark instance, where the structural sorts and
// merge joins have enough input to engage the parallel and spilling code
// paths.
func Corpus() []Case {
	return []Case{
		{"seed-path-text", `document("d")/a/b/text()`, false},
		{"seed-self-join", `for $x in document("d")/a return for $y in document("d")/a where $x = $y return <m>{$x}</m>`, false},
		{"seed-let-count", `let $a := for $t in document("d")//b return $t where not(empty($a)) return count($a)`, false},
		{"seed-order-by", `for $x at $i in document("d") order by $x descending return ($i, $x)`, false},
		{"seed-some-sort", `if (some $v in document("d") satisfies contains($v, "x")) then "y" else sort(document("d"))`, false},
		{"seed-function", `declare function f($v) { $v/b }; f(document("d"))`, false},
		{"seed-aggregates", `<r>{sum((1, 2.5, document("d")/a/@x))} {avg(document("d")//b)} {min(document("d")//b/text())} {max(document("d")/a/@x)}</r>`, false},
		{"seed-positional", `for $x in document("d")/a return ($x/b[1], $x/*[position() <= 2], $x/*[2])`, false},
		{"seed-arith-cmp", `for $x in document("d")//b where $x/text() >= "t" return document("d")/a/@x + 2 * 3`, false},
		{"seed-ordby-key", `for $x in document("d")//b order by $x/text() descending return $x`, false},
		{"xmark-q1", xmark.Q1, true},
		{"xmark-q2", xmark.Q2, true},
		{"xmark-q3", xmark.Q3, true},
		{"xmark-q4", xmark.Q4, true},
		{"xmark-q5", xmark.Q5, true},
		{"xmark-q6", xmark.Q6, true},
		{"xmark-q7", xmark.Q7, true},
		{"xmark-q8", xmark.Q8, true},
		{"xmark-q9", xmark.Q9, true},
		{"xmark-q10", xmark.Q10, true},
		{"xmark-q11", xmark.Q11, true},
		{"xmark-q12", xmark.Q12, true},
		{"xmark-q13", xmark.Q13, true},
		{"xmark-q14", xmark.Q14, true},
		{"xmark-q15", xmark.Q15, true},
		{"xmark-q16", xmark.Q16, true},
		{"xmark-q17", xmark.Q17, true},
		{"xmark-q18", xmark.Q18, true},
		{"xmark-q19", xmark.Q19, true},
		{"xmark-q20", xmark.Q20, true},
		{"xmark-sort", `for $x in document("auction.xml")/site/people/person return sort($x/*)`, true},
		{"xmark-distinct", `distinct(document("auction.xml")/site/regions/*/item/name)`, true},
		// A structural self-join on a low-cardinality key: the generator
		// draws names from a small pool, so the sorted join inputs are long
		// equal-key runs and the partitioned probe's boundaries land inside
		// them — the case where a per-partition probe must re-find the full
		// matching run.
		{"xmark-dup-join", `for $x in document("auction.xml")/site/people/person/name
		 for $y in document("auction.xml")/site/people/person/name
		 where $x = $y return <m>{$x/text()}</m>`, true},
		// Descendant seeks: nested anchors (listitem and parlist nest in
		// each other), text and attribute anchors under a multi-range
		// input, // in a loop body (hoisting serves it at depth 0), and //
		// after a positional step or roots, which must stay subtrees-dfs.
		{"xmark-desc-nested", `(document("auction.xml")//listitem, document("auction.xml")//parlist)`, true},
		{"xmark-desc-multirange", `(document("auction.xml")/site/regions/*/item//text(),
		 document("auction.xml")/site/closed_auctions/closed_auction//@person)`, true},
		{"xmark-desc-in-loop", `for $p in document("auction.xml")/site/people/person
		 return <n>{$p/name/text()}{count(document("auction.xml")/site/regions//item)}</n>`, true},
		{"xmark-desc-unabsorbed", `(document("auction.xml")/site/regions/*[1]//item,
		 select("<item>", subtrees-dfs(roots(document("auction.xml")/site/regions/*/item))))`, true},
		// The two seek paths the mutation run found uncovered (see the
		// package doc): a multi-range seek the serial variants fuse into the
		// data() and [1] chains above it, and a seek under a depth-0 where
		// clause that drops the only environment.
		{"xmark-seek-fused-multirange", `(data(document("auction.xml")/site/regions/*/item/name),
		 document("auction.xml")/site/people/person/name[1])`, true},
		{"xmark-seek-dropped-env", `<r>{if (empty(document("auction.xml")/site))
		 then document("auction.xml")/site/people/person/name else "none"}</r>`, true},
		// A chain whose input is long enough to run morsel-parallel and
		// whose last input row survives it: data() over every subtree of
		// the regions (thousands of rows, one top-level tree per subtree),
		// the last of which is a single text leaf.
		{"xmark-par-chain-last-row", `data(subtrees-dfs(document("auction.xml")/site/regions))`, true},
		// A merge join at loop-invariance depth 1: both join sides live
		// under one person, while keys that compare equal recur under
		// different persons, so a side sort that drops the ancestor prefix
		// hands the probe a misordered sequence. The two sides differ (every
		// child against the leaf children's text), so they misorder
		// differently.
		{"xmark-join-under-person", `for $p in document("auction.xml")/site/people/person
		 return for $a in $p/* return for $b in $p/*/text()
		 where $a/text() = $b return <m>{$b}</m>`, true},
	}
}

// handDoc is the hand-written document of the fuzz seed corpus.
const handDoc = `<a x="1"><b>t</b><b>u</b><c><b>t</b></c></a>`

// Docs builds the shared document set: the hand-written document as "d"
// and a generated XMark instance as "auction.xml", in both the DI
// encoding and the interpreter's tree form.
func Docs(tb testing.TB, scale float64, seed int64) (core.Catalog, interp.Catalog) {
	tb.Helper()
	hand, err := xmltree.Parse(handDoc)
	if err != nil {
		tb.Fatal(err)
	}
	gen := xmark.Generate(xmark.Config{ScaleFactor: scale, Seed: seed})
	forests := map[string]xmltree.Forest{"d": hand, "auction.xml": gen}
	return core.EncodeCatalog(forests), interp.Catalog{"d": hand, "auction.xml": gen}
}

// Variant is one evaluation configuration of the DI engine.
type Variant struct {
	Name string
	Opts core.Options
}

// Baseline is the reference DI configuration every variant is compared
// against: serial, in-memory DI-MSJ — the forced decorrelated plan, run
// with one worker, no index and no budget. The interpreter checks it.
func Baseline() core.Options {
	return core.Options{ForceJoinMode: core.ModeMSJ, Parallelism: 1}
}

// Variants is the configuration matrix, restricted to the axes that can
// disagree: per engine (DI-OPT, DI-MSJ, DI-NLJ) one serial base
// configuration plus that base with exactly one factor changed — the
// structural indexes attached, a 1-byte memory budget (every group
// reorder spills: sort, distinct, order by and the merge-join side sorts),
// three workers (an odd count, so partition boundaries fall inside
// equal-key runs) — and, for DI-OPT, real statistics, alone and
// with the indexes (the configuration the public API always runs). The
// DI-MSJ base is the Baseline itself and is not repeated. Two adversarial
// combinations close the matrix: three workers under the 1-byte budget,
// with and without indexes. The package doc records the mutation run that
// justifies leaving the rest of the cross product out. spillDir receives
// the external-sort runs of the budgeted variants.
func Variants(spillDir string, set *index.Set, st *stats.Set) []Variant {
	var vs []Variant
	for _, mode := range []core.Mode{core.ModeAuto, core.ModeMSJ, core.ModeNLJ} {
		base := core.Options{ForceJoinMode: mode, Parallelism: 1}
		factor := func(name string, change func(*core.Options)) {
			v := Variant{Name: fmt.Sprintf("%s-%s", mode, name), Opts: base}
			change(&v.Opts)
			vs = append(vs, v)
		}
		if mode != core.ModeMSJ {
			factor("base", func(*core.Options) {})
		}
		factor("idx", func(o *core.Options) { o.Indexes = set })
		factor("budget1", func(o *core.Options) { o.MemBudget, o.SpillDir = 1, spillDir })
		factor("par3", func(o *core.Options) { o.Parallelism = 3 })
		if mode == core.ModeAuto {
			factor("stats", func(o *core.Options) { o.DocStats = st })
			factor("idx-stats", func(o *core.Options) { o.Indexes, o.DocStats = set, st })
		}
	}
	adversarial := core.Options{ForceJoinMode: core.ModeMSJ, Parallelism: 3, MemBudget: 1, SpillDir: spillDir}
	vs = append(vs, Variant{"msj-par3-budget1", adversarial})
	adversarial.Indexes = set
	return append(vs, Variant{"msj-par3-budget1-idx", adversarial})
}

// IdenticalRelations asserts two result relations match tuple-for-tuple
// including the physical digit count of every key — a spilled, indexed
// or parallel run must be indistinguishable from the serial in-memory run.
func IdenticalRelations(tb testing.TB, what string, got, want *interval.Relation) {
	tb.Helper()
	if len(got.Tuples) != len(want.Tuples) {
		tb.Fatalf("%s: %d tuples, want %d", what, len(got.Tuples), len(want.Tuples))
	}
	for i := range want.Tuples {
		g, w := got.Tuples[i], want.Tuples[i]
		if g.S != w.S || !g.L.Equal(w.L) || !g.R.Equal(w.R) ||
			len(g.L) != len(w.L) || len(g.R) != len(w.R) {
			tb.Fatalf("%s: tuple %d is %s (digits %d/%d), want %s (digits %d/%d)",
				what, i, g, len(g.L), len(g.R), w, len(w.L), len(w.R))
		}
	}
}

// RunCase evaluates one corpus case under the given options, returning
// the result relation (parse errors are fatal: corpus entries must
// always parse).
func RunCase(tb testing.TB, c Case, cat core.Catalog, opts core.Options) (*interval.Relation, error) {
	tb.Helper()
	e, err := xq.Parse(c.Query)
	if err != nil {
		tb.Fatalf("%s: corpus query does not parse: %v", c.Name, err)
	}
	return core.Compile(e, opts).Eval(cat, opts)
}

// Package difftest is the cross-engine differential harness: one shared
// corpus of queries and documents, executed through every evaluation
// strategy the repository ships — the denotational interpreter (the
// semantic oracle) and the DI-MSJ and DI-NLJ plan modes, each with
// structural indexes or a spilling memory budget switched on one at a
// time, and DI-MSJ with statistics-fed estimates — asserting
// digit-identical results.
//
// The comparisons happen at two levels:
//
//   - against the interpreter, results are compared as decoded forests
//     (the interpreter has no interval encoding, so forest equality is
//     the strongest available check);
//   - between DI variants, result relations are compared tuple-for-tuple
//     including the physical digit count of every key. The variants are
//     purely algorithmic switches, so nothing weaker than digit identity
//     is acceptable: a spilled, index-served run must be
//     indistinguishable from the in-memory scan-backed run.
//
// Tests that need one engine pair live with their package; tests whose
// point is "all engines agree on the shared corpus" live here, so the
// corpus and the variant matrix exist exactly once.
//
// # Why the matrix is not a cross product
//
// Variants lists 7 configurations per corpus case where the full cross
// of engine x batch size x parallelism x budget x index x statistics once
// had 106. The pruning was checked by a mutation run: operator bugs were
// seeded by hand, one at a time, into the full matrix and into the pruned
// one, and TestEnginesAgreeOnCorpus was run against each. Every bug the
// full cross killed, the pruned matrix killed too. "cases" is how many
// corpus cases failed (of 33 for the rows marked *, 39 for the one marked
// +, 40 for the two unmarked pipeline rows, which were re-seeded into
// the row-filter runner of package pipeline, and 47 for the three marked
// #, which were re-seeded into the one budgeted sort, engine.SortUnits,
// once its spill runs held sort positions instead of copies of the units,
// and 47 for the three marked §, seeded into the comparator-parameterized
// merge join after the full cross was retired, the rows marked †,
// re-seeded into the 10-leg matrix as described below, and the rows
// marked ▲, seeded into the merge join once its pairs of goroutines were
// the one concurrent mechanism left), "first" the
// configuration (or the interpreter check of the baseline) that failed
// first in the first failing case. The baseline runs the fused path
// chains, so a bug in a serial stage fails the interpreter check before
// any variant runs.
//
//	seeded bug                                          full cross (parent)      this matrix
//	pipeline: head takes the first tree's end from L    4 cases, default         6 cases, interpreter
//	pipeline: head/tail first-tree test inverted        4 cases, default         6 cases, interpreter
//	pipeline: fused seek keeps a stale range position   survived                 7 cases, DI-MSJ-idx †
//	interval: SortPerm drops the position tie-break     1 case, interpreter      1 case, interpreter *
//	core: merge join emits inner matches reversed       3 cases, interpreter     3 cases, interpreter *
//	engine: merge skips the first spilled run           6 cases, batch3-par3-b1  19 cases, DI-MSJ-budget1 #
//	engine: spilled permutation returns insertion order 1 case, batch3-par3-b1   14 cases, DI-MSJ-budget1 #†
//	engine: distinct keeps the last duplicate           1 case, interpreter      1 case, interpreter *
//	engine: EmbedOuter drops each group's last tuple    13 cases, interpreter    13 cases, interpreter *
//	index: resolved subtree range ends one row early    11 cases, nlj-scalar-idx 12 cases, DI-MSJ-idx *†
//	core: depth-0 seek served after a dropping where    survived                 1 case, DI-MSJ-idx +†
//	core: spilled merge-join sort ignores the prefix    survived                 2 cases, DI-MSJ-budget1 #
//	index: splice leaves ancestors' End unshifted       (no splice)              1 case, DI-MSJ spliced ‡†
//	index: splice keeps a class's old DistinctText      (no splice)              setup check ‡
//	core: theta probe boundary taken as <=              (not run)                6 cases, interpreter §
//	core: value < keys reduced max-left, min-right      (not run)                1 case, interpreter §
//	core: theta probe ignores the d0 prefix run         (not run)                1 case, interpreter §
//	pipeline: data() relabels its first kept row        (not run)                23 cases, interpreter ¶
//	core: seek lengthens a key of a row it skips        (not run)                survived ¶
//	core: probe range start search uses < for <=        3 cases, default         5 cases, interpreter ▲
//	core: pair hands back the sides' orders swapped     (no pair)                9 cases, interpreter ▲
//
// Three seeded bugs first survived both matrices alike, so they were gaps
// of the corpus, not of the pruning, and corpus cases close all three.
// A multi-range seek fused into the data() chain above it
// (xmark-seek-fused-multirange) kills the seek source that keeps its
// position between ranges. A seek under a depth-0 where clause that drops
// the only environment (xmark-seek-dropped-env) kills the seek that serves
// its rows there anyway; TestLoopInvariantSeeksInsideLoops kills it too.
// The last, a spilled merge-join side sort that ignores the
// ancestor prefix, needs a merge join below a loop whose equal keys sit
// under different ancestor environments: xmark-join-under-person joins
// each person's children against their own text, and DI-MSJ-budget1
// kills it. All 14 are killed.
//
// Of the three rows marked #, the merge that skips a run now fails every
// spilled sort with an error, since the runs no longer total the sort's
// positions, instead of answering wrong; so it fails more cases than it
// did on copied units. The prefix-blind side sort also fails
// xmark-theta-under-person, the theta join's twin of the equi-join case.
//
// The three rows marked § were written with the theta merge join and its
// corpus cases, and each is killed. The inclusive boundary first fails
// seed-theta-lt, whose repeated t text ties; the swapped min/max only
// xmark-theta-multivalued, whose auctions carry several bids; and the
// probe that searches the whole inner instead of the outer's prefix run
// only xmark-theta-under-person, whose matches must stay inside one
// person.
//
// The two rows marked ¶ write into rows a run shares with the catalog:
// filter-shaped operators return views of their input, so a path chain
// over a document hands out the document's own rows. The relabeled
// data() survivor also corrupts the answer and fails 23 cases, first the
// interpreter check of seed-self-join. The seek that lengthens the L key
// of the document row just before its range changes no answer any corpus
// case reads, so the matrix passes; the sharing guard,
// TestCorpusLeavesCatalogIntact, which hashes the catalog before and
// after the corpus under every configuration, kills both.
//
// The six rows marked † first failed under legs of a third plan mode,
// the DI-MSJ plan with estimates added, since folded into DI-MSJ (15 legs
// became 10). Seeded again into the 10-leg matrix, each is killed with the
// count and first case the 15-leg matrix gives on the same code. The fused
// seek's bug has no code left to live in — a chain filters a seek's
// gathered output as one range — so it was seeded into that gather, in
// core's execIndexPath, instead.
//
// Fused path chains once also ran morsel-parallel, and two seeded bugs
// lived in that runner: a split inside a top-level tree and a last
// morsel that ended a row early. The runner is deleted, and with it their
// rows. So is the worker pool's exchange merge that took the larger head:
// the exchange sort is gone, and with the pool the matrix's three worker
// legs (DI-MSJ-par3, DI-NLJ-par3 and msj-par3-budget1), which took it
// from 10 legs to 7. Every row above without ▲ was first killed under a
// leg that is still here, so its count and first case stand as the
// 10-leg matrix measured them.
//
// The rows marked ▲ live in the one concurrent mechanism left: the merge
// join sorts its two sides as a pair (exec.Pair), then probes the two
// halves of the sorted outer as a pair (probePair). Both were run against
// the 7-leg matrix one case at a time, since a panic ends the test
// binary. A probe range whose start search uses < where <= belongs skips
// the inner equal run of its first outer; every probe runs in halves, so
// it fails 5 cases in the baseline, the first the interpreter check of
// seed-self-join, and TestProbeMergeUnit kills it too. Swapping the two
// orders the side-sort pair hands back fails 9 cases, all in the
// baseline: five panic with an index out of range (xmark-q8, the first,
// xmark-q9, xmark-q11, seed-theta-mixed, seed-theta-deep-less) and the
// rest answer wrong. The self-joins (seed-self-join, xmark-dup-join,
// xmark-theta-under-person) survive it, because their two sides sort to
// the same order.
//
// The two rows marked ‡ were seeded into the catalog's update path,
// index.Splice, and run against TestSplicedIndexAgreesOnCorpus, which
// queries an updated document with spliced, rebuilt and no indexes. The
// stale ancestor End panics the descendant resolution of xmark-q7 under
// the spliced index. The stale DistinctText, an annotation of the
// spliced dataguide, changes no answer, as it must: statistics only feed
// estimates, which change no plan. The test's setup kills it instead:
// after every update it compares the statistics read off the spliced
// index with an independent stack pass over the updated relation
// (pathStats), and so does a splice that leaves out the ancestors'
// subtree-row delta. Both rows are killed too by the splice's property
// test (TestSpliceMatchesRebuild in package index), which compares every
// step's End, class rows and annotations with index.Build, and by the
// root package's TestCatalogUpdatePublishesIndex.
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
// merge joins have enough input to engage the spilling code paths.
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
		// equal-key runs whose full cross products the probe must emit.
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
		// A long chain input whose last row survives the chain: data()
		// over every subtree of the regions (thousands of rows, one
		// top-level tree per subtree), the last of which is a single text
		// leaf. It guards the end of the one pass the chain makes.
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
		// Theta merge joins. The value < with the inner key on the right
		// (<) and on the left (>), over the hand document's repeated t text
		// (ties, which match neither way) and c's empty text (an empty key,
		// which matches nothing); mixed numeric and text atoms, which order
		// numbers first and numerically (9 before 10); multi-valued keys on
		// both sides, decided by the existential minimum and maximum; a theta
		// join at loop-invariance depth 1, whose matches stay inside each
		// person; and the structural deep-less.
		{"seed-theta-lt", `for $x in document("d")/a/* return for $y in document("d")/a/*
		 where $x/text() < $y/text() return <m>{$x/text()}{$y/text()}</m>`, false},
		{"seed-theta-gt", `for $x in document("d")//b return for $y in document("d")/a/*
		 where $x/text() > $y/text() return <m>{$x/text()}{$y}</m>`, false},
		{"seed-theta-mixed", `for $x in (data(document("d")/a/@x), "10", "x", document("d")//b/text())
		 return for $y in ("9", "10", "1.0", document("d")//b/text(), "tt")
		 where $x < $y return <m>{$x}{$y}</m>`, false},
		{"seed-theta-deep-less", `for $x in document("d")/a/* return for $y in document("d")//b
		 where deep-less($y, $x) return <m>{$x}{$y}</m>`, false},
		{"xmark-theta-multivalued", `for $a in document("auction.xml")/site/open_auctions/open_auction
		 let $l := for $b in document("auction.xml")/site/open_auctions/open_auction
		   where $a/bidder/increase > $b/bidder/increase return $b
		 return <n>{count($l)}</n>`, true},
		{"xmark-theta-under-person", `for $p in document("auction.xml")/site/people/person
		 return for $a in $p/* return for $b in $p/*/text()
		 where $a/text() < $b return <m>{$b}</m>`, true},
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
// against: in-memory DI-MSJ — the decorrelated plan, run with no index,
// no statistics and no budget. The interpreter checks it.
func Baseline() core.Options {
	return core.Options{ForceJoinMode: core.ModeMSJ}
}

// Variants is the configuration matrix, restricted to the axes that can
// disagree: per plan mode (DI-MSJ, DI-NLJ) one base configuration plus
// that base with exactly one factor changed — the structural indexes
// attached, or a 1-byte memory budget (every group reorder spills: sort,
// distinct, order by and the merge-join side sorts) — and, for DI-MSJ,
// real statistics with the indexes (the configuration the public API
// always runs), which guards that estimation never changes an answer.
// The DI-MSJ base is the Baseline itself and is not repeated. One
// adversarial combination closes the matrix: DI-MSJ under the 1-byte
// budget with the indexes. The package doc records the mutation run that
// justifies leaving the rest of the cross product out. spillDir receives
// the spill runs of the budgeted variants.
func Variants(spillDir string, set *index.Set, st *stats.Set) []Variant {
	var vs []Variant
	for _, mode := range []core.Mode{core.ModeMSJ, core.ModeNLJ} {
		base := core.Options{ForceJoinMode: mode}
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
		if mode == core.ModeMSJ {
			factor("idx-stats", func(o *core.Options) { o.Indexes, o.DocStats = set, st })
		}
	}
	adversarial := core.Options{ForceJoinMode: core.ModeMSJ, MemBudget: 1, SpillDir: spillDir, Indexes: set}
	return append(vs, Variant{"msj-budget1-idx", adversarial})
}

// IdenticalRelations asserts two result relations match tuple-for-tuple
// including the physical digit count of every key — a spilled or indexed
// run must be indistinguishable from the in-memory scan-backed run.
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

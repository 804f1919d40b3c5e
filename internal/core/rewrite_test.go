package core

import (
	"slices"
	"strings"
	"testing"

	"dixq/internal/index"
	"dixq/internal/interval"
	"dixq/internal/plan"
	"dixq/internal/xq"
)

// TestDescendantSeekRewrite pins where the index rewrite absorbs a
// subtrees-dfs: directly under a select or seltext, never after roots or
// a step the dataguide cannot absorb, with the rest of the chain left as
// operators over the seek — where an absent label still prunes. Every
// plan must answer digit for digit as its scan-backed twin.
func TestDescendantSeekRewrite(t *testing.T) {
	cat, _ := generatedCatalog(0.005, 3)
	set := index.BuildSet(cat)
	cases := []struct {
		query string
		// path is the descendant seek's rendered path; "" means none may
		// form and subtrees-dfs must still run.
		path   string
		pruned bool
	}{
		{`document("auction.xml")//listitem`, "//listitem", false},
		{`document("auction.xml")/site/regions//item/name`, "/site/regions//item", false},
		{`document("auction.xml")/site/closed_auctions/closed_auction//@person`, "/site/closed_auctions/closed_auction//@person", false},
		{`document("auction.xml")/site/regions/*/item//text()`, "/site/regions/*/item//text()", false},
		{`select("<item>", subtrees-dfs(document("auction.xml")/site/regions/*))`, "/site/regions//item", false},
		{`select("<item>", subtrees-dfs(document("auction.xml")/site/regions/*/item))`, "/site/regions/*/item/descendant-or-self::item", false},
		{`document("auction.xml")/site/regions/*[1]//item`, "", false},
		{`select("<item>", subtrees-dfs(roots(document("auction.xml")/site/regions/*/item)))`, "", false},
		{`document("auction.xml")//*`, "", false},
		{`document("auction.xml")//nosuch`, "", true},
		{`document("auction.xml")/site//item/nosuch`, "", true},
	}
	for _, c := range cases {
		// The constructor keeps the whole path below the hoisting cut: a
		// bare top-level path would be split between a let and its body.
		e := xq.MustParse("<r>{" + c.query + "}</r>")
		scanOpts := Options{ForceJoinMode: ModeMSJ}
		idxOpts := scanOpts
		idxOpts.Indexes = set
		q := Compile(e, idxOpts)
		var seeks, dfs, pruned int
		plan.Walk(q.Plan(idxOpts), func(n *plan.Node) {
			switch {
			case n.Op == plan.OpSubtreesDFS:
				dfs++
			case n.Op == plan.OpIndexPath && n.Seek.Pruned:
				if n.Seek.WidenBy != 1 {
					t.Errorf("%s: pruned node widens by %d, want 1", c.query, n.Seek.WidenBy)
				}
				pruned++
			case n.Op == plan.OpIndexPath && n.Seek.Pos != nil:
				if n.Seek.Path != c.path || n.Seek.WidenBy != 1 || n.Digits != 2 {
					t.Errorf("%s: descendant seek %q widening %d digits %d, want %q, 1, 2",
						c.query, n.Seek.Path, n.Seek.WidenBy, n.Digits, c.path)
				}
				seeks++
			}
		})
		switch {
		case c.pruned && pruned != 1:
			t.Errorf("%s: %d pruned nodes, want 1", c.query, pruned)
		case !c.pruned && c.path != "" && (seeks != 1 || dfs != 0):
			t.Errorf("%s: %d descendant seeks and %d subtrees-dfs served, want 1 and 0", c.query, seeks, dfs)
		case !c.pruned && c.path == "" && (seeks != 0 || dfs != 1):
			t.Errorf("%s: %d descendant seeks and %d subtrees-dfs served, want 0 and 1", c.query, seeks, dfs)
		}
		want, err := Compile(e, scanOpts).Eval(cat, scanOpts)
		if err != nil {
			t.Fatalf("%s scan: %v", c.query, err)
		}
		got, err := q.Eval(cat, idxOpts)
		if err != nil {
			t.Fatalf("%s indexed: %v", c.query, err)
		}
		identicalRelations(t, c.query, got, want)
	}
}

// TestSeekOverOtherRelationFails: a seek runs only over the relation its
// index was resolved against. Evaluating with an index set built over an
// equal but distinct relation is an error — for a seek on its own, a seek
// under a fused chain, and a pruned path — never a silent scan.
func TestSeekOverOtherRelationFails(t *testing.T) {
	cat, _ := generatedCatalog(0.0005, 20030609)
	copied := Catalog{}
	for name, rel := range cat {
		copied[name] = &interval.Relation{Tuples: slices.Clone(rel.Tuples)}
	}
	set := index.BuildSet(copied)
	for _, c := range []struct{ query, op string }{
		{`<r>{document("auction.xml")/site/people/person}</r>`, "index-seek"},
		{`<r>{data(document("auction.xml")/site/people/person/@id)}</r>`, "index-seek"},
		{`<r>{document("auction.xml")/site/people/nosuch}</r>`, "index-prune"},
	} {
		for _, mode := range []Mode{ModeMSJ, ModeNLJ} {
			opts := Options{ForceJoinMode: mode, Indexes: set}
			q := Compile(xq.MustParse(c.query), opts)
			if tree := q.Plan(opts).Tree(); !strings.Contains(tree, c.op) {
				t.Fatalf("%s (%s): plan has no %s:\n%s", c.query, mode, c.op, tree)
			}
			if _, err := q.Eval(copied, opts); err != nil {
				t.Fatalf("%s (%s) over the indexed relation: %v", c.query, mode, err)
			}
			if _, err := q.Eval(cat, opts); err == nil {
				t.Errorf("%s (%s): evaluated over a relation the index does not describe", c.query, mode)
			}
		}
	}
}

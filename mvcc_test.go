package dixq

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// TestSnapshotIsolationUnderConcurrentUpdates is the MVCC differential
// stress test: writers continuously mutate, reload, reindex and drop
// documents while readers pin snapshots and evaluate queries against
// them with several engines. Every reader asserts that all runs against
// its pinned snapshot agree digit for digit (XML and result encoding)
// with the merge-join run on the
// same snapshot — a reader observing a concurrent writer's partial state
// would diverge. The CI race-stress job runs this under -race, where the
// copy-on-write discipline itself is checked: any writer mutating a
// published snapshot in place is a data race on a reader's pinned view.
func TestSnapshotIsolationUnderConcurrentUpdates(t *testing.T) {
	cat := NewCatalog()
	cat.Add("auction.xml", GenerateXMark(0.002, 7))

	// The writer below appends to and deletes from <site>'s child list;
	// it needs the base child count to address its own appended node.
	base, _ := cat.Snapshot().Document("auction.xml")
	root := base.Trees()
	if root != 1 {
		t.Fatalf("xmark document has %d roots", root)
	}
	siteChildren := len(base.tree()[0].Children)
	if siteChildren == 0 {
		t.Fatal("no site children")
	}

	queries := []string{
		`document("auction.xml")/site/people/person/name`,
		`for $p in document("auction.xml")/site/people/person return <n>{$p/name/text()}</n>`,
		`count(document("auction.xml")/site/regions/*)`,
	}
	parsed := make([]*Query, len(queries))
	for i, text := range queries {
		q, err := ParseQuery(text)
		if err != nil {
			t.Fatal(err)
		}
		parsed[i] = q
	}

	const readers = 4
	const iterations = 25
	done := make(chan struct{})
	var writersWg, readersWg sync.WaitGroup
	errs := make(chan error, readers+2)

	// Writer 1: structural updates on the queried document — append a
	// subtree under <site>, then delete it again. Each publish is a new
	// version; pinned snapshots must never see a half-applied pair.
	writersWg.Add(1)
	go func() {
		defer writersWg.Done()
		n := 0
		for {
			select {
			case <-done:
				return
			default:
			}
			frag, err := ParseDocument(fmt.Sprintf(`<scratch n="%d"><v>x</v></scratch>`, n))
			if err != nil {
				errs <- err
				return
			}
			if _, err := cat.Update("auction.xml", OpAppendChild, []int{0}, frag); err != nil {
				errs <- fmt.Errorf("append %d: %w", n, err)
				return
			}
			// The appended subtree is site's last child.
			if _, err := cat.Update("auction.xml", OpDelete, []int{0, siteChildren}, nil); err != nil {
				errs <- fmt.Errorf("delete %d: %w", n, err)
				return
			}
			if n%5 == 0 {
				cat.Reindex("auction.xml")
			}
			n++
		}
	}()

	// Writer 2: catalog-level churn on a document no query references —
	// load, update, drop — so readers also race version bumps that swap
	// the index/stats sets wholesale.
	writersWg.Add(1)
	go func() {
		defer writersWg.Done()
		extra := GenerateXMark(0.0005, 11)
		frag, err := ParseDocument(`<extra/>`)
		if err != nil {
			errs <- err
			return
		}
		for {
			select {
			case <-done:
				return
			default:
			}
			cat.Add("extra.xml", extra)
			if _, err := cat.Update("extra.xml", OpAppendChild, []int{0}, frag); err != nil {
				errs <- err
				return
			}
			cat.Drop("extra.xml")
		}
	}()

	for r := 0; r < readers; r++ {
		readersWg.Add(1)
		go func(r int) {
			defer readersWg.Done()
			for i := 0; i < iterations; i++ {
				snap := cat.Snapshot()
				q := parsed[(r+i)%len(parsed)]
				ref, err := q.Run(context.Background(), snap, &Options{Engine: MergeJoin})
				if err != nil {
					errs <- fmt.Errorf("reader %d iter %d serial: %w", r, i, err)
					return
				}
				variants := []*Options{
					{},
					{Engine: NestedLoop},
					{Engine: Interpreter},
				}
				for _, opts := range variants {
					got, err := q.Run(context.Background(), snap, opts)
					if err != nil {
						errs <- fmt.Errorf("reader %d iter %d engine %v: %w", r, i, opts.Engine, err)
						return
					}
					if got.XML() != ref.XML() {
						errs <- fmt.Errorf("reader %d iter %d engine %v (snapshot v%d): %q != %q",
							r, i, opts.Engine, snap.Version(), got.XML(), ref.XML())
						return
					}
					if opts.Engine != Interpreter {
						// DI engines must agree on the interval encoding of
						// the result, digit for digit.
						if ge, re := got.Document().Encoding(), ref.Document().Encoding(); ge != re {
							errs <- fmt.Errorf("reader %d iter %d engine %v: encoding diverged:\n%s\nvs\n%s",
								r, i, opts.Engine, ge, re)
							return
						}
					}
				}
				// The pinned snapshot still answers identically after all
				// the writes that happened during this iteration.
				again, err := q.Run(context.Background(), snap, &Options{Engine: MergeJoin})
				if err != nil {
					errs <- fmt.Errorf("reader %d iter %d re-run: %w", r, i, err)
					return
				}
				if again.XML() != ref.XML() {
					errs <- fmt.Errorf("reader %d iter %d: pinned snapshot v%d changed under us", r, i, snap.Version())
					return
				}
			}
		}(r)
	}

	// Readers finishing (or any error) stops the writers.
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		readersWg.Wait()
	}()
	var firstErr error
	select {
	case firstErr = <-errs:
	case <-readerDone:
	}
	close(done)
	writersWg.Wait()
	<-readerDone
	if firstErr == nil {
		select {
		case firstErr = <-errs:
		default:
		}
	}
	if firstErr != nil {
		t.Fatal(firstErr)
	}

	// The mutated document still round-trips: its content is back to the
	// base (every writer pair was append-then-delete), possibly under
	// grown keys.
	final, ok := cat.Snapshot().Document("auction.xml")
	if !ok {
		t.Fatal("auction.xml vanished")
	}
	if !final.Equal(base) {
		t.Error("append/delete pairs did not restore the document")
	}
}

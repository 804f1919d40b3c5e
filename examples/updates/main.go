// Store-and-update walkthrough: shred a document into its interval
// relation, persist it, apply subtree updates directly on the encoding
// (no re-shredding), and query the result.
//
// The paper defers updates to dynamic labeling schemes; the digit-vector
// keys used for dynamic intervals double as one — inserting a subtree
// extends its neighbor's key with fresh digits and relabels nothing.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"dixq"
	"dixq/internal/core"
	"dixq/internal/index"
	"dixq/internal/interval"
	"dixq/internal/stats"
	"dixq/internal/store"
	"dixq/internal/update"
	"dixq/internal/xmltree"
)

func main() {
	doc, err := xmltree.Parse(`<site><people>
		<person id="p0"><name>Ada</name></person>
		<person id="p1"><name>Bo</name></person>
	</people></site>`)
	if err != nil {
		log.Fatal(err)
	}

	// Shred once, persist.
	rel := interval.Encode(doc)
	dir, err := os.MkdirTemp("", "dixq-updates")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "people.dixq")
	if err := store.SaveFull(path, rel, index.Build(rel), stats.Collect(rel)); err != nil {
		log.Fatal(err)
	}
	fmt.Println("stored", path)

	// Load and update the relation directly: insert a person between the
	// two existing ones.
	rel, _, _, err = store.LoadFull(path)
	if err != nil {
		log.Fatal(err)
	}
	var p0 interval.Key
	for _, t := range rel.Tuples {
		if t.S == "<person>" {
			p0 = t.L
			break
		}
	}
	newPerson, _ := xmltree.Parse(`<person id="p2"><name>Cy</name></person>`)
	rel, err = update.InsertAfter(rel, p0, newPerson)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nafter InsertAfter, the new person's keys extend its neighbor's:")
	for _, t := range rel.Tuples {
		if t.S == "<person>" {
			fmt.Printf("  <person> l=%-8s r=%s\n", t.L, t.R)
		}
	}

	// The updated relation is immediately queryable.
	out, err := core.Run(
		`for $p in document("people.xml")/site/people/person return $p/name/text()`,
		core.Catalog{"people.xml": rel}, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nnames in document order:", interval.XML(out))

	// Rebuild compacts the keys back to the dense DFS counter.
	rel, err = update.Rebuild(rel)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nafter Rebuild:")
	for _, t := range rel.Tuples {
		if t.S == "<person>" {
			fmt.Printf("  <person> l=%-8s r=%s\n", t.L, t.R)
		}
	}

	// The same machinery, behind the live catalog: Update publishes a new
	// immutable snapshot per mutation, and a snapshot pinned before the
	// write keeps answering from the old state — readers never block on
	// (or observe half of) a writer.
	people, err := dixq.ParseDocument(`<site><people>
		<person id="p0"><name>Ada</name></person>
	</people></site>`)
	if err != nil {
		log.Fatal(err)
	}
	cat := dixq.NewCatalog()
	cat.Add("people.xml", people)
	pinned := cat.Snapshot()

	frag, err := dixq.ParseDocument(`<person id="p1"><name>Bo</name></person>`)
	if err != nil {
		log.Fatal(err)
	}
	// Path [0, 0] is <people>, the first child of the first root.
	if _, err := cat.Update("people.xml", dixq.OpAppendChild, []int{0, 0}, frag); err != nil {
		log.Fatal(err)
	}

	q, err := dixq.ParseQuery(`for $p in document("people.xml")/site/people/person return $p/name/text()`)
	if err != nil {
		log.Fatal(err)
	}
	before, err := q.Run(pinned, nil)
	if err != nil {
		log.Fatal(err)
	}
	after, err := q.Run(cat, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\npinned snapshot v%d still sees: %s\n", pinned.Version(), before.XML())
	fmt.Printf("live catalog    v%d now sees:   %s\n", cat.Version(), after.XML())
}

// Quickstart: parse a document, run queries with the public API, and show
// the different evaluation engines producing identical answers.
package main

import (
	"context"
	"fmt"
	"log"

	"dixq"
)

func main() {
	// The sample document is the paper's Figure 1 — a fragment of an
	// XMark auction database.
	doc, err := dixq.ParseDocument(dixq.XMarkFigure1)
	if err != nil {
		log.Fatal(err)
	}
	cat := dixq.NewCatalog()
	cat.Add("auction.xml", doc)

	// A path query.
	res, err := dixq.Run(`document("auction.xml")/site/people/person/name/text()`, cat, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("names:", res.XML())

	// A FLWR query with a constructor.
	q, err := dixq.ParseQuery(`for $p in document("auction.xml")/site/people/person
	                           where $p/homepage
	                           return <page owner="{$p/name/text()}">{$p/homepage/text()}</page>`)
	if err != nil {
		log.Fatal(err)
	}
	res, err = q.Run(context.Background(), cat, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("homepages:", res.XML())

	// The paper's Q8: persons and how many items they bought, evaluated
	// by every engine.
	q8, err := dixq.ParseQuery(dixq.XMarkQ8)
	if err != nil {
		log.Fatal(err)
	}
	for _, engine := range []dixq.Engine{dixq.MergeJoin, dixq.NestedLoop, dixq.Interpreter, dixq.GenericSQL} {
		res, err := q8.Run(context.Background(), cat, &dixq.Options{Engine: engine})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("Q8 via %-11s -> %s (%v)\n", engine, res.XML(), res.Elapsed)
	}
}

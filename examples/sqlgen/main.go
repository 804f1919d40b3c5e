// SQL translation walkthrough: show the single SQL statement the paper's
// Section 4 templates produce for a query, then execute it on the bundled
// generic relational engine and compare with the DI engine's answer.
package main

import (
	"context"
	"fmt"
	"log"

	"dixq"
)

func main() {
	doc, err := dixq.ParseDocument(dixq.XMarkFigure1)
	if err != nil {
		log.Fatal(err)
	}
	cat := dixq.NewCatalog()
	cat.Add("auction.xml", doc)

	query := `for $p in document("auction.xml")/site/people/person
	          return <n>{$p/name/text()}</n>`
	q, err := dixq.ParseQuery(query)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("query:")
	fmt.Println(" ", query)
	fmt.Println("\ncore form:")
	fmt.Println(" ", q.Core())

	sql, err := q.SQL(cat)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nsingle SQL statement (Section 4 templates, scalar widths):")
	fmt.Println(sql)

	viaSQL, err := q.Run(context.Background(), cat, &dixq.Options{Engine: dixq.GenericSQL})
	if err != nil {
		log.Fatal(err)
	}
	viaDI, err := q.Run(context.Background(), cat, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ngeneric SQL engine result:", viaSQL.XML())
	fmt.Println("dynamic interval result:  ", viaDI.XML())
	if !viaSQL.Document().Equal(viaDI.Document()) {
		log.Fatal("engines disagree!")
	}
	fmt.Println("results agree.")
}

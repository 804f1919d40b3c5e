package dixq_test

import (
	"context"
	"fmt"
	"log"

	"dixq"
)

// The basic flow: parse a document, register it under the name queries
// use, run a query.
func Example() {
	doc, err := dixq.ParseDocument(dixq.XMarkFigure1)
	if err != nil {
		log.Fatal(err)
	}
	cat := dixq.NewCatalog()
	cat.Add("auction.xml", doc)

	res, err := dixq.Run(`document("auction.xml")/site/people/person/name/text()`, cat, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.XML())
	// Output: Jaak TempestiCong Rosca
}

// Queries compile once and run many times, on any engine.
func ExampleQuery_Run() {
	doc, _ := dixq.ParseDocument(dixq.XMarkFigure1)
	cat := dixq.NewCatalog()
	cat.Add("auction.xml", doc)

	q, err := dixq.ParseQuery(dixq.XMarkQ8)
	if err != nil {
		log.Fatal(err)
	}
	for _, engine := range []dixq.Engine{dixq.MergeJoin, dixq.Interpreter} {
		res, err := q.Run(context.Background(), cat, &dixq.Options{Engine: engine})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: %s\n", engine, res.XML())
	}
	// Output:
	// DI-MSJ: <item person="Cong Rosca">1</item>
	// interpreter: <item person="Cong Rosca">1</item>
}

// The paper's translation produces one SQL statement per query; its base
// tables are interval encodings of the documents.
func ExampleQuery_SQL() {
	doc, _ := dixq.ParseDocument(`<a><b>x</b></a>`)
	cat := dixq.NewCatalog()
	cat.Add("d", doc)

	q, _ := dixq.ParseQuery(`document("d")/a/b/text()`)
	sql, err := q.SQL(cat)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(sql[:4], "...")
	// Output: WITH ...
}

// FLWR expressions with constructors, conditions and ordering.
func ExampleParseQuery() {
	doc, _ := dixq.ParseDocument(`<inventory>
		<item><sku>b</sku><qty>2</qty></item>
		<item><sku>a</sku><qty>9</qty></item>
		<item><sku>c</sku><qty>5</qty></item>
	</inventory>`)
	cat := dixq.NewCatalog()
	cat.Add("inv", doc)

	res, err := dixq.Run(`for $i in document("inv")/inventory/item
	                      where $i/qty != "2"
	                      order by $i/sku
	                      return <low sku="{$i/sku/text()}">{$i/qty/text()}</low>`, cat, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.XML())
	// Output: <low sku="a">9</low><low sku="c">5</low>
}

// Encoding shows the interval representation of Definition 3.1 that every
// engine operates on.
func ExampleDocument_Encoding() {
	doc, _ := dixq.ParseDocument(`<a><b>t</b></a>`)
	fmt.Print(doc.Encoding())
	// Output:
	// <a>                                           0            5
	// <b>                                           1            4
	// t                                             2            3
}

// Command xmarkgen writes an XMark-like benchmark document to stdout or a
// file. It substitutes for the original xml-benchmark.org generator: the
// structure and cardinality ratios of the subtrees the paper's queries
// touch are reproduced, scaled linearly by -sf.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"dixq/internal/interval"
	"dixq/internal/store"
	"dixq/internal/xmark"
)

func main() {
	sf := flag.Float64("sf", 0.001, "scale factor (1.0 ≈ XMark's full size)")
	seed := flag.Int64("seed", 0, "generator seed")
	out := flag.String("o", "", "output file (default stdout)")
	encode := flag.String("encode", "", "also write the interval encoding to this .dixq file")
	counts := flag.Bool("stats", false, "print node counts to stderr")
	flag.Parse()

	doc := xmark.Generate(xmark.Config{ScaleFactor: *sf, Seed: *seed})

	if *encode != "" {
		if err := store.Save(*encode, interval.Encode(doc)); err != nil {
			fmt.Fprintf(os.Stderr, "xmarkgen: %v\n", err)
			os.Exit(1)
		}
	}
	if *out == "" && *encode != "" {
		return // encoded output only
	}

	w := bufio.NewWriter(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xmarkgen: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		w = bufio.NewWriter(f)
	}
	if _, err := w.WriteString(doc.Indent()); err != nil {
		fmt.Fprintf(os.Stderr, "xmarkgen: %v\n", err)
		os.Exit(1)
	}
	if err := w.Flush(); err != nil {
		fmt.Fprintf(os.Stderr, "xmarkgen: %v\n", err)
		os.Exit(1)
	}
	if *counts {
		persons, open, closed, items, cats := xmark.Counts(*sf)
		fmt.Fprintf(os.Stderr, "nodes: %d (persons %d, open auctions %d, closed auctions %d, items %d, categories %d)\n",
			doc.Size(), persons, open, closed, items, cats)
	}
}

// Command dixq runs an XQuery against XML documents using the dynamic
// interval engine (or one of the baselines).
//
// Usage:
//
//	dixq -q 'for $p in document("d")/site/... return ...' -doc d=path.xml
//	dixq -f query.xq -doc auction.xml=auction.dixq      # pre-shredded store
//	dixq -f query.xq -doc auction.xml=auction.xml -engine di-nlj -stats
//	dixq -f query.xq -doc d=doc.xml -sql       # print the SQL translation
//	dixq -f query.xq -doc d=doc.xml -explain   # print the plan description
//	dixq -i -doc d=doc.xml                     # interactive session
//
// Engines: di-opt (the cost-based default), di-msj, di-nlj, interp, generic-sql.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"dixq"
)

type docFlags []string

func (d *docFlags) String() string { return strings.Join(*d, ",") }

func (d *docFlags) Set(v string) error {
	*d = append(*d, v)
	return nil
}

type config struct {
	engine  dixq.Engine
	indent  bool
	stats   bool
	trace   bool
	timeout time.Duration
}

func main() {
	queryText := flag.String("q", "", "query text")
	queryFile := flag.String("f", "", "file holding the query")
	var docs docFlags
	flag.Var(&docs, "doc", "document binding name=path.xml or name=path.dixq (repeatable)")
	engineName := flag.String("engine", "di-opt", "di-opt, di-msj, di-nlj, interp, or generic-sql")
	explain := flag.Bool("explain", false, "print the plan description and exit")
	showSQL := flag.Bool("sql", false, "print the SQL translation and exit")
	showCore := flag.Bool("core", false, "print the desugared core expression and exit")
	showWidth := flag.Bool("width", false, "print the Section 4.3 width analysis and exit")
	stats := flag.Bool("stats", false, "print the phase breakdown after the result")
	trace := flag.Bool("trace", false, "print the per-operator table (calls, rows, exclusive time, in plan order) after the result (DI engines)")
	indent := flag.Bool("indent", false, "pretty-print the result")
	timeout := flag.Duration("timeout", 0, "abort evaluation after this duration")
	interactive := flag.Bool("i", false, "interactive session: read queries from stdin, each ended by an empty line")
	flag.Parse()

	if *interactive {
		if *queryText != "" || *queryFile != "" {
			fatal("-i cannot be combined with -q or -f")
		}
	} else if (*queryText == "") == (*queryFile == "") {
		fatal("exactly one of -q or -f is required (or -i for an interactive session)")
	}

	engine, err := dixq.ParseEngine(*engineName)
	if err != nil {
		fatal("%v", err)
	}
	cfg := config{engine: engine, indent: *indent, stats: *stats, trace: *trace, timeout: *timeout}

	cat := dixq.NewCatalog()
	for _, binding := range docs {
		name, path, ok := strings.Cut(binding, "=")
		if !ok {
			fatal("bad -doc %q, want name=path", binding)
		}
		doc, err := dixq.LoadDocumentFile(path)
		if err != nil {
			fatal("%v", err)
		}
		cat.Add(name, doc)
	}

	if *interactive {
		repl(cat, cfg)
		return
	}

	text := *queryText
	if *queryFile != "" {
		data, err := os.ReadFile(*queryFile)
		if err != nil {
			fatal("%v", err)
		}
		text = string(data)
	}
	q, err := dixq.ParseQuery(text)
	if err != nil {
		fatal("%v", err)
	}
	switch {
	case *showCore:
		fmt.Println(q.Core())
	case *explain:
		fmt.Print(q.Explain())
	case *showWidth:
		bound, digits, err := q.WidthBound(cat)
		if err != nil {
			fatal("%v", err)
		}
		fmt.Printf("width bound: %s\nkey digits:  %d\n", bound, digits)
	case *showSQL:
		sql, err := q.SQL(cat)
		if err != nil {
			fatal("%v", err)
		}
		fmt.Println(sql)
	default:
		if err := runOnce(q, cat, cfg); err != nil {
			fatal("%v", err)
		}
	}
}

func runOnce(q *dixq.Query, cat *dixq.Catalog, cfg config) error {
	res, err := q.Run(cat, &dixq.Options{Engine: cfg.engine, Timeout: cfg.timeout})
	if err != nil {
		return err
	}
	if cfg.indent {
		fmt.Print(res.Document().IndentedXML())
	} else {
		fmt.Println(res.XML())
	}
	if ops := res.Operators(); cfg.trace && ops != nil {
		// The run's own per-operator actuals, in plan order (DI engines).
		fmt.Fprintf(os.Stderr, "%8s %12s %12s  %s\n", "calls", "rows", "time", "operator")
		for _, op := range ops {
			fmt.Fprintf(os.Stderr, "%8d %12d %12s  %s\n", op.Calls, op.Rows, op.Time.Round(time.Microsecond), op.Op)
		}
	}
	if cfg.stats {
		fmt.Fprintf(os.Stderr, "elapsed: %v\n", res.Elapsed.Round(time.Microsecond))
		if s := res.Stats; s != nil {
			fmt.Fprintf(os.Stderr, "paths: %v, join: %v, construction: %v; merge joins: %d, nested loops: %d, embedded tuples: %d\n",
				s.Paths.Round(time.Microsecond), s.Join.Round(time.Microsecond),
				s.Construction.Round(time.Microsecond), s.MergeJoins, s.NestedLoops, s.EmbeddedTuples)
		}
	}
	return nil
}

// repl reads queries from stdin, each terminated by an empty line, until
// EOF or the "quit" command. Errors are reported without ending the
// session.
func repl(cat *dixq.Catalog, cfg config) {
	fmt.Fprintln(os.Stderr, "dixq interactive session; end each query with an empty line, 'quit' to exit.")
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 0, 1<<20), 1<<20)
	var lines []string
	flush := func() {
		text := strings.TrimSpace(strings.Join(lines, "\n"))
		lines = lines[:0]
		if text == "" {
			return
		}
		q, err := dixq.ParseQuery(text)
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			return
		}
		if err := runOnce(q, cat, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
		}
	}
	for scanner.Scan() {
		line := scanner.Text()
		if strings.TrimSpace(line) == "quit" && len(lines) == 0 {
			return
		}
		if strings.TrimSpace(line) == "" {
			flush()
			continue
		}
		lines = append(lines, line)
	}
	flush()
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dixq: "+format+"\n", args...)
	os.Exit(1)
}

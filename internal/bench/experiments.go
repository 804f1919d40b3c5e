package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"dixq"
	"dixq/internal/xmark"
	"dixq/internal/xmltree"
)

// DefaultScales are the scale factors the harness sweeps by default. The
// paper used 0.001–10; the defaults here are smaller so a full sweep
// finishes in minutes on a laptop — pass -scales to dibench to go bigger.
// The quadratic-vs-linear separation is already unmistakable at these
// sizes.
var DefaultScales = []float64{0.0005, 0.001, 0.002, 0.005, 0.01}

// docCache memoizes generated documents per scale factor within a run.
type docCache map[float64]*dixq.Document

func (c docCache) get(sf float64) *dixq.Document {
	if d, ok := c[sf]; ok {
		return d
	}
	d := dixq.GenerateXMark(sf, 20030609)
	c[sf] = d
	return d
}

// Experiment names accepted by Run.
const (
	ExpQ13         = "q13"         // Figure 8
	ExpQ8          = "q8"          // Figure 9
	ExpQ8Breakdown = "q8breakdown" // Figure 10
	ExpQ9          = "q9"          // Figure 11
	ExpDeepKeys    = "deepkeys"    // the §6.2 structural-key experiment
)

// Experiments lists all experiment names in paper order.
var Experiments = []string{ExpQ13, ExpQ8, ExpQ8Breakdown, ExpQ9, ExpDeepKeys}

// Run executes one named experiment over the scale factors and writes the
// paper-style table to w.
func Run(w io.Writer, name string, scales []float64, engines []dixq.Engine, cfg Config) error {
	cache := docCache{}
	switch name {
	case ExpQ13:
		return timingTable(w, "Figure 8: Q13 timings (seconds)",
			xmark.Q13, scales, engines, cfg, cache)
	case ExpQ8:
		return timingTable(w, "Figure 9: Q8 timings (seconds)",
			xmark.Q8, scales, engines, cfg, cache)
	case ExpQ9:
		return timingTable(w, "Figure 11: Q9 timings (seconds)",
			xmark.Q9, scales, engines, cfg, cache)
	case ExpQ8Breakdown:
		return breakdownTable(w, scales, cfg, cache)
	case ExpDeepKeys:
		return deepKeyTable(w, cfg)
	default:
		return fmt.Errorf("bench: unknown experiment %q (have %s)", name, strings.Join(Experiments, ", "))
	}
}

// timingTable reproduces the shape of Figures 8, 9 and 11: engines down,
// scale factors across.
func timingTable(w io.Writer, title, query string, scales []float64, engines []dixq.Engine, cfg Config, cache docCache) error {
	fmt.Fprintln(w, title)
	header := []string{"system"}
	for _, sf := range scales {
		header = append(header, trimFloat(sf))
	}
	rows := [][]string{header}
	for _, e := range engines {
		row := []string{e.Label()}
		dnf := false
		for _, sf := range scales {
			if dnf {
				// Cost is monotone in scale: once an engine exceeds the
				// budget, larger scales are reported DNF without running
				// (the paper's tables do the same implicitly).
				row = append(row, "DNF")
				continue
			}
			wl, err := NewWorkload(query, cache.get(sf))
			if err != nil {
				return err
			}
			out := wl.Run(e, cfg)
			switch {
			case out.Err != nil:
				return fmt.Errorf("bench: %s at sf=%g: %w", e.Label(), sf, out.Err)
			case out.DNF:
				row = append(row, "DNF")
				dnf = true
			default:
				row = append(row, fmt.Sprintf("%.3f", out.Seconds))
			}
		}
		rows = append(rows, row)
	}
	writeTable(w, rows)
	return nil
}

// breakdownTable reproduces Figure 10: the Q8 cost split between path
// extraction, the join, and result construction for DI-NLJ and DI-MSJ.
func breakdownTable(w io.Writer, scales []float64, cfg Config, cache docCache) error {
	fmt.Fprintln(w, "Figure 10: Q8 timing breakdown (percent of DI engine time)")
	header := []string{"system", "component"}
	for _, sf := range scales {
		header = append(header, trimFloat(sf))
	}
	rows := [][]string{header}
	for _, e := range []dixq.Engine{dixq.NestedLoop, dixq.MergeJoin} {
		cells := map[string][]string{"paths": nil, "join": nil, "construction": nil}
		for _, sf := range scales {
			wl, err := NewWorkload(xmark.Q8, cache.get(sf))
			if err != nil {
				return err
			}
			out := wl.Run(e, cfg)
			if out.DNF || out.Err != nil {
				for comp := range cells {
					cells[comp] = append(cells[comp], "DNF")
				}
				continue
			}
			total := out.Stats.Total().Seconds()
			if total <= 0 {
				total = 1e-12
			}
			cells["paths"] = append(cells["paths"], pct(out.Stats.Paths.Seconds(), total))
			cells["join"] = append(cells["join"], pct(out.Stats.Join.Seconds(), total))
			cells["construction"] = append(cells["construction"], pct(out.Stats.Construction.Seconds(), total))
		}
		for _, comp := range []string{"paths", "join", "construction"} {
			rows = append(rows, append([]string{e.Label(), comp}, cells[comp]...))
		}
	}
	writeTable(w, rows)
	return nil
}

func pct(part, total float64) string {
	return fmt.Sprintf("%.0f%%", 100*part/total)
}

// deepKeyTable is the experiment Section 6.2 describes without a figure:
// the cost of a structural-equality join grows linearly with the number of
// nodes in the (tree-valued) join keys. Records and matches are held
// constant; only key size varies.
func deepKeyTable(w io.Writer, cfg Config) error {
	fmt.Fprintln(w, "Section 6.2: structural-equality join vs key size (seconds)")
	const records = 300
	rows := [][]string{{"key nodes", "di-msj seconds", "seconds per key node"}}
	for _, spec := range []struct{ depth, fanout int }{
		{1, 1}, {2, 2}, {3, 2}, {2, 4}, {3, 3}, {4, 2},
	} {
		forest, keyNodes := DeepKeyDocument(records, spec.depth, spec.fanout)
		doc, err := dixq.ParseDocument(forest.String())
		if err != nil {
			return err
		}
		wl, err := NewWorkload(DeepKeyQuery, doc)
		if err != nil {
			return err
		}
		out := wl.Run(dixq.MergeJoin, cfg)
		if out.Err != nil {
			return out.Err
		}
		if out.DNF {
			rows = append(rows, []string{fmt.Sprint(keyNodes), "DNF", "-"})
			continue
		}
		rows = append(rows, []string{
			fmt.Sprint(keyNodes),
			fmt.Sprintf("%.3f", out.Seconds),
			fmt.Sprintf("%.2e", out.Seconds/float64(keyNodes)),
		})
	}
	writeTable(w, rows)
	return nil
}

// DeepKeyQuery joins two record sets on structural equality of their
// tree-valued keys.
const DeepKeyQuery = `for $x in document("auction.xml")/db/left/rec
let $m := for $y in document("auction.xml")/db/right/rec
          where deep-equal($x/key, $y/key)
          return $y
where not(empty($m))
return count($m)`

// DeepKeyDocument builds a two-sided record set whose join keys are
// complete trees of the given depth and fanout; every left record matches
// exactly one right record. It returns the document and the node count of
// one key. Key leaves are empty elements, not text, so sibling leaves stay
// separate nodes when the document is written out and parsed back.
func DeepKeyDocument(records, depth, fanout int) (xmltree.Forest, int) {
	var buildKey func(d, id int) *xmltree.Node
	buildKey = func(d, id int) *xmltree.Node {
		if d <= 1 {
			return xmltree.NewElement(fmt.Sprintf("k%d", id))
		}
		kids := make(xmltree.Forest, fanout)
		for i := range kids {
			kids[i] = buildKey(d-1, id*fanout+i)
		}
		return xmltree.NewElement("k", kids...)
	}
	side := func(name string) *xmltree.Node {
		recs := make(xmltree.Forest, records)
		for i := range recs {
			recs[i] = xmltree.NewElement("rec",
				xmltree.NewElement("key", buildKey(depth, i)),
				xmltree.NewElement("payload", xmltree.NewText(fmt.Sprintf("p%d", i))),
			)
		}
		return xmltree.NewElement(name, recs...)
	}
	doc := xmltree.Forest{xmltree.NewElement("db", side("left"), side("right"))}
	keyNodes := xmltree.Forest{buildKey(depth, 0)}.Size() + 1
	return doc, keyNodes
}

func trimFloat(f float64) string {
	s := fmt.Sprintf("%g", f)
	return s
}

// writeTable renders rows with aligned columns.
func writeTable(w io.Writer, rows [][]string) {
	widths := map[int]int{}
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	cols := make([]int, 0, len(widths))
	for c := range widths {
		cols = append(cols, c)
	}
	sort.Ints(cols)
	for ri, row := range rows {
		var b strings.Builder
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
		if ri == 0 {
			fmt.Fprintln(w, strings.Repeat("-", len(strings.TrimRight(b.String(), " "))))
		}
	}
	fmt.Fprintln(w)
}

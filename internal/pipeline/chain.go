// Fused path chains as one row filter. Every stage is a filter over the
// L-sorted input, so a chain of stages keeps a subsequence of its input:
// each row passes through the stages' state machines in order and survives
// when the last one keeps it. The survivors are recorded as runs of the
// input's rows and are the input tuples themselves — a view of the input
// when they are one run, else one exact copy of the rows, keys aliased and
// no digit copied — so the output is digit-identical to the materializing
// engine operators by construction.
package pipeline

import (
	"dixq/internal/interval"
	"dixq/internal/xmltree"
)

// Stage is one fused filter operator in value form: its kind, parameters,
// and the per-row state machine. Stages live by value in a slice so that
// an entire fused chain costs a constant number of allocations, not one
// per operator. Relations are immutable, so the retained keys (max,
// prefix, end) alias the keys of the tuples they were read from.
type Stage struct {
	kind  stageKind
	label string
	depth int

	max     interval.Key // roots/children/select: R of the current tree
	prefix  interval.Key // head/tail: L of the environment's first tuple
	end     interval.Key // head/tail: R of the environment's first tree
	have    bool
	keeping bool
	done    bool
}

type stageKind uint8

const (
	stageRoots stageKind = iota
	stageChildren
	stageSelectLabel
	stageSelectText
	stageData
	stageHead
	stageTail
)

// RootsStage is Algorithm 5.2 as a row filter: keep a row iff its interval
// starts after every previously seen interval has closed.
func RootsStage() Stage { return Stage{kind: stageRoots} }

// ChildrenStage keeps the complement of roots: rows strictly inside a
// previously opened interval.
func ChildrenStage() Stage { return Stage{kind: stageChildren} }

// SelectLabelStage keeps whole top-level trees whose root label equals
// label.
func SelectLabelStage(label string) Stage { return Stage{kind: stageSelectLabel, label: label} }

// SelectTextStage keeps whole top-level trees whose root is a text node.
func SelectTextStage() Stage { return Stage{kind: stageSelectText} }

// DataStage keeps text-labeled rows (always leaves); the only stateless
// stage.
func DataStage() Stage { return Stage{kind: stageData} }

// HeadStage keeps each environment's first top-level tree: depth digits
// of L identify the environment, the first tuple of each environment opens
// its first tree, and done latches once a row falls outside it.
func HeadStage(depth int) Stage { return Stage{kind: stageHead, depth: depth} }

// TailStage keeps everything but each environment's first top-level tree.
func TailStage(depth int) Stage { return Stage{kind: stageTail, depth: depth} }

// keep advances the state machine by one row and reports whether the row
// survives.
func (s *Stage) keep(t *interval.Tuple) bool {
	switch s.kind {
	case stageRoots, stageChildren:
		if !s.have || interval.Compare(t.L, s.max) > 0 {
			s.max, s.have = t.R, true
			return s.kind == stageRoots
		}
		return s.kind == stageChildren
	case stageSelectLabel, stageSelectText:
		if !s.have || interval.Compare(t.L, s.max) > 0 {
			s.max, s.have = t.R, true
			if s.kind == stageSelectLabel {
				s.keeping = t.S == s.label
			} else {
				s.keeping = xmltree.LabelKind(t.S) == xmltree.Text
			}
		}
		return s.keeping
	case stageData:
		return xmltree.LabelKind(t.S) == xmltree.Text
	default: // stageHead, stageTail
		head := s.kind == stageHead
		if !s.have || t.L.ComparePrefix(s.prefix, s.depth) != 0 {
			s.prefix, s.end, s.have, s.done = t.L, t.R, true, false
			return head
		}
		inFirst := interval.Compare(t.L, s.end) <= 0 && !s.done
		if !inFirst {
			s.done = true
		}
		return inFirst == head
	}
}

// Filter runs a fused stage chain over the rows of rel in one pass and
// returns the survivors as runs of rel's rows (Runs.Of materializes them,
// as a view when they are one run). Each state machine sees exactly the
// survivors of the previous one, in order; rows[i] is incremented by the
// rows stages[i] kept, so the last entry counts the chain's output.
func Filter(rel *interval.Relation, stages []Stage, rows []int) interval.Runs {
	var out interval.Runs
next:
	for i := range rel.Tuples {
		t := &rel.Tuples[i]
		for si := range stages {
			if !stages[si].keep(t) {
				continue next
			}
			rows[si]++
		}
		out.Add(i, i+1)
	}
	return out
}

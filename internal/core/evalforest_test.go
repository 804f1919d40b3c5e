package core

import (
	"dixq/internal/interval"
	"dixq/internal/xmltree"
)

// EvalForest runs the query and decodes the result into a forest, the
// form the interpreter oracle answers in.
func (q *Query) EvalForest(cat Catalog, opts Options) (xmltree.Forest, error) {
	rel, err := q.Eval(cat, opts)
	if err != nil {
		return nil, err
	}
	return interval.Decode(rel)
}

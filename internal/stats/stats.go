// Package stats only names what benchmark/ measures. The statistics are
// the annotations of the index's dataguide classes (index.Class), which
// the estimator reads class by class. These aliases are frozen for
// benchmark/ until ROADMAP item 24 points it at the index.
package stats

import (
	"dixq/internal/index"
	"dixq/internal/interval"
)

// Set is a catalog's index set.
type Set = index.Set

// DocStats is one document's index.
type DocStats = index.DocIndex

// Collect builds a relation's index.
func Collect(rel *interval.Relation) *DocStats { return index.Build(rel) }

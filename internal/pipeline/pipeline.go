// Package pipeline is the streaming half of the DI prototype: the Section
// 5 path operators (Algorithm 5.2's Roots and its siblings) as fused row
// filters. Each operator consumes its input in L-key order, preserves that
// order, and uses O(1) space (O(depth) for the operators that track
// enclosing intervals), so a chain of path steps — the bulk of every
// query's plan — runs as one linear pass over the source relation's own
// rows with no intermediate relations.
//
// The materializing engine (package engine) remains the executor for the
// stateful environment machinery (loop entry, embedding, merge joins) and
// the specification of every stage here: engine.Roots, Children,
// SelectLabel, SelectText, Data, Head and Tail are what the stages are
// tested against. The executor fuses maximal path chains through this
// package and materializes only at the chain boundary.
package pipeline

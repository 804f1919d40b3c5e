// Package exec holds the engine's one concurrent mechanism: Pair runs two
// functions at once, one of them on a second goroutine. The merge join
// sorts its two sides with it and then probes the two halves of its sorted
// outer with it; everything else evaluates serially on the query's own
// goroutine.
//
// The pair needs no process-wide budget. The evaluator is serial, so a
// query has at most one pair in flight, and admission control already
// bounds how many queries run. InFlight, HighWater and ResetHighWater
// count the second goroutines, so leak checks can assert that every pair
// has finished.
package exec

import "sync/atomic"

// inFlight counts the pairs' second goroutines currently running;
// highWater tracks its maximum since the last ResetHighWater.
var inFlight, highWater atomic.Int64

// InFlight returns the number of pairs' second goroutines running now.
func InFlight() int { return int(inFlight.Load()) }

// HighWater returns the most second goroutines that ran at once since the
// last ResetHighWater.
func HighWater() int { return int(highWater.Load()) }

// ResetHighWater zeroes the high-water mark (tests bracket a scenario
// with it).
func ResetHighWater() { highWater.Store(0) }

// Pair runs a on a second goroutine and b on the caller's, and returns
// once both have. A panic in a is recovered on its goroutine and raised
// again on the caller once b is done, so a panicking side neither ends the
// process nor outlives the call; a panic in b waits for a before it
// unwinds the caller.
func Pair(a, b func()) {
	n := inFlight.Add(1)
	for {
		hw := highWater.Load()
		if n <= hw || highWater.CompareAndSwap(hw, n) {
			break
		}
	}
	done := make(chan any, 1)
	go func() {
		defer func() {
			p := recover()
			inFlight.Add(-1)
			done <- p
		}()
		a()
	}()
	defer func() {
		if p := <-done; p != nil {
			panic(p)
		}
	}()
	b()
}

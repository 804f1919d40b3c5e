package exec

import (
	"sync/atomic"
	"testing"
)

// TestPairRunsBoth checks that Pair runs each side exactly once, returns
// only after both finished, and leaves no second goroutine counted.
func TestPairRunsBoth(t *testing.T) {
	ResetHighWater()
	var a, b atomic.Int32
	Pair(func() { a.Add(1) }, func() { b.Add(1) })
	if a.Load() != 1 || b.Load() != 1 {
		t.Fatalf("sides ran %d and %d times, want 1 and 1", a.Load(), b.Load())
	}
	if n := InFlight(); n != 0 {
		t.Fatalf("InFlight() = %d after Pair returned, want 0", n)
	}
	if hw := HighWater(); hw != 1 {
		t.Fatalf("HighWater() = %d, want 1", hw)
	}
}

// TestPairPanicReachesCaller checks that a panic on the second goroutine
// is raised again on the caller, after the caller's side has finished and
// with the goroutine's count released.
func TestPairPanicReachesCaller(t *testing.T) {
	var bDone bool
	func() {
		defer func() {
			if p := recover(); p != "side a" {
				t.Fatalf("recovered %v, want the second goroutine's panic", p)
			}
		}()
		Pair(func() { panic("side a") }, func() { bDone = true })
		t.Fatal("Pair returned normally after a side panicked")
	}()
	if !bDone {
		t.Fatal("the caller's side did not run to completion")
	}
	if n := InFlight(); n != 0 {
		t.Fatalf("InFlight() = %d after a panicking pair, want 0", n)
	}
}

// TestPairCallerPanicWaits checks that a panic on the caller's side still
// waits for the second goroutine before it unwinds.
func TestPairCallerPanicWaits(t *testing.T) {
	var aDone atomic.Bool
	release := make(chan struct{})
	func() {
		defer func() {
			if p := recover(); p != "side b" {
				t.Fatalf("recovered %v, want the caller's panic", p)
			}
		}()
		Pair(func() { <-release; aDone.Store(true) }, func() { close(release); panic("side b") })
	}()
	if !aDone.Load() {
		t.Fatal("Pair unwound before its second goroutine finished")
	}
	if n := InFlight(); n != 0 {
		t.Fatalf("InFlight() = %d, want 0", n)
	}
}

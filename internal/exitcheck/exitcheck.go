// Package exitcheck is the one exit assertion of the abort, cancel and
// shutdown tests: however a run ends — finished, over its deadline,
// cancelled, failed on a spill fault, or cut off by a server shutdown —
// nothing it started may outlive it. Only test files import it.
package exitcheck

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"dixq/internal/exec"
	"dixq/internal/obs"
)

// settle bounds how long Check waits for goroutines to wind down: some
// (an HTTP handler's, say) exit asynchronously after the call that
// started them has returned.
const settle = 5 * time.Second

// State is what the process looked like before the work a test checks.
type State struct {
	goroutines     int
	pinned, queued int64
}

// Take records the state to return to.
func Take() State {
	return State{
		goroutines: runtime.NumGoroutine(),
		pinned:     obs.SnapshotsPinned.Value(),
		queued:     obs.AdmissionQueueDepth.Value(),
	}
}

// Check fails t unless the process is back to s: no pair goroutine
// (exec.Pair) in flight, no more goroutines than before, no file in spillDir (skipped
// when empty), dixq_snapshots_pinned and dixq_admission_queue_depth back
// at their earlier values, and — when admitted is non-nil — no request
// still holding an admission slot. It polls for up to settle before
// failing, and names everything still out of place.
func (s State) Check(t testing.TB, spillDir string, admitted func() int) {
	t.Helper()
	var left []string
	for deadline := time.Now().Add(settle); ; time.Sleep(5 * time.Millisecond) {
		left = s.left(spillDir, admitted)
		if len(left) == 0 || time.Now().After(deadline) {
			break
		}
	}
	for _, l := range left {
		t.Error(l)
	}
	if len(left) > 0 {
		buf := make([]byte, 1<<16)
		t.Logf("goroutines:\n%s", buf[:runtime.Stack(buf, true)])
	}
}

// left lists what is not back to s.
func (s State) left(spillDir string, admitted func() int) []string {
	var out []string
	add := func(bad bool, format string, args ...any) {
		if bad {
			out = append(out, fmt.Sprintf(format, args...))
		}
	}
	n := exec.InFlight()
	add(n != 0, "%d pair goroutines in flight", n)
	g := runtime.NumGoroutine()
	add(g > s.goroutines, "%d goroutines, %d before", g, s.goroutines)
	p := obs.SnapshotsPinned.Value()
	add(p != s.pinned, "%d snapshots pinned, %d before", p, s.pinned)
	q := obs.AdmissionQueueDepth.Value()
	add(q != s.queued, "%d requests queued for admission, %d before", q, s.queued)
	if admitted != nil {
		a := admitted()
		add(a != 0, "%d requests still admitted", a)
	}
	if spillDir != "" {
		files, err := os.ReadDir(spillDir)
		add(err != nil, "reading the spill directory: %v", err)
		add(len(files) != 0, "%d files left in the spill directory", len(files))
	}
	return out
}

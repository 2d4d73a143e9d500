package runtime

import (
	"bytes"
	goruntime "runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// Dynamic checks of the two rules Theorem 2 rests on: latency suspends
// tasks, never workers (a worker loop blocks only where it parks, in
// idle), and a task does not suspend while it holds its worker's owner
// role (inside spawn).

// blockingStates are the goroutine states of a goroutine that waits for
// another goroutine or for time. Mutex waits (O(1) leaf critical
// sections) and coroutine switches (a task running) are not among them.
var blockingStates = []string{"sleep", "chan send", "chan receive", "select", "IO wait"}

// blockedWorker returns the first goroutine in a runtime.Stack dump that
// runs a worker loop and is blocked outside idle, or "".
func blockedWorker(dump []byte) string {
	for _, g := range bytes.Split(dump, []byte("\n\n")) {
		s := string(g)
		if !strings.Contains(s, ".(*worker).loop(") || strings.Contains(s, ".(*worker).idle(") {
			continue
		}
		// "goroutine 7 [chan receive, 2 minutes]:"
		head, _, _ := strings.Cut(s, "\n")
		_, state, _ := strings.Cut(head, "[")
		state, _, _ = strings.Cut(state, "]")
		state, _, _ = strings.Cut(state, ",")
		for _, b := range blockingStates {
			if state == b || strings.HasPrefix(state, b+" (") {
				return s
			}
		}
	}
	return ""
}

// TestWorkerNeverBlocks samples every goroutine's stack about every
// 100 µs for up to a second while steal-heavy fib runs repeatedly at
// P = 2, and fails on the first worker loop caught blocked outside its
// park frame. Unlike a static check it sees through interface calls and
// function values; it can miss a block too short to be sampled.
func TestWorkerNeverBlocks(t *testing.T) {
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for !stop.Load() {
			if _, err := runFib(LatencyHiding, 2, 18); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	defer func() { stop.Store(true); <-done }()
	buf := make([]byte, 1<<20)
	for end := time.Now().Add(time.Second); time.Now().Before(end); {
		n := goruntime.Stack(buf, true)
		if n == len(buf) {
			buf = make([]byte, 2*len(buf))
			continue
		}
		if g := blockedWorker(buf[:n]); g != "" {
			t.Fatalf("a worker loop blocked outside idle:\n%s", g)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestUnparkFullSlotPanics: a wake token sent into a full slot means the
// park handshake is broken (two winners, or a token left from an earlier
// park). unpark must fail loudly at once, not block the waker — which may
// be a worker loop.
func TestUnparkFullSlotPanics(t *testing.T) {
	w := harnessWorkers(1)[0]
	w.sema <- false
	w.parked.Store(true)
	w.rt.nidle.Add(1)
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		w.unpark(false)
	}()
	select {
	case r := <-panicked:
		if r == nil {
			t.Fatal("unpark into a full token slot returned without panicking")
		}
	case <-time.After(time.Second):
		t.Fatal("unpark into a full token slot blocked")
	}
}

// TestSpawnOntoDeepDeque spawns 3 000 children onto one deque before
// awaiting any: spawn must not wait however deep its deque is, since a
// task resumed on another worker would push onto a deque it no longer
// owns (task.spawning makes such a wait panic).
func TestSpawnOntoDeepDeque(t *testing.T) {
	const n = 3000
	for _, p := range []int{1, 2} {
		var sum atomic.Int64
		_, err := Run(Config{Workers: p}, func(c *Ctx) {
			futs := make([]*Future, n)
			for i := range futs {
				futs[i] = c.Spawn(func(*Ctx) { sum.Add(1) })
			}
			for _, f := range futs {
				f.Await(c)
			}
		})
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if got := sum.Load(); got != n {
			t.Fatalf("P=%d: %d children ran, want %d", p, got, n)
		}
	}
}

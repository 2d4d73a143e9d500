package runtime

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// testExtOp is a minimal ExternalOp for tests: Arm hands the completion
// token to a completer goroutine over a channel; CancelExternal records
// the interrupt. The struct is reused across awaits (handles are
// one-shot, the op is not), which is exactly the pooled shape the I/O
// layer uses.
type testExtOp struct {
	armed    chan ExternalHandle
	canceled atomic.Int64
}

func newTestExtOp(buf int) *testExtOp {
	return &testExtOp{armed: make(chan ExternalHandle, buf)}
}

func (op *testExtOp) Arm(h ExternalHandle) { op.armed <- h }

func (op *testExtOp) CancelExternal(h ExternalHandle, cause error) {
	op.canceled.Add(1)
}

// TestAwaitExternalOpBasic checks payload delivery through both modes:
// the completer's (n, err) pair must surface verbatim from the await.
func TestAwaitExternalOpBasic(t *testing.T) {
	sentinel := errors.New("short read")
	for _, m := range modes() {
		op := newTestExtOp(1)
		done := make(chan struct{})
		go func() {
			defer close(done)
			for h := range op.armed {
				h.Complete(42, sentinel)
			}
		}()
		_, err := Run(Config{Workers: 2, Mode: m}, func(c *Ctx) {
			for i := 0; i < 3; i++ {
				n, werr := c.AwaitExternalOp("test-ext", KindExternal, op)
				if n != 42 || !errors.Is(werr, sentinel) {
					t.Errorf("%v: got (%d, %v), want (42, %v)", m, n, werr, sentinel)
				}
			}
		})
		close(op.armed)
		<-done
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
	}
}

// TestAwaitExternalCancelCompletionRace races scope cancellation against
// the completer's Complete on the same suspension, many times, in both
// modes. Exactly one side may claim the task: it must either observe the
// payload or unwind with the cancellation cause — never hang, never
// double-resume (the epoch CAS; -race patrols the payload handoff).
func TestAwaitExternalCancelCompletionRace(t *testing.T) {
	for _, m := range modes() {
		const rounds = 200
		op := newTestExtOp(1)
		var wg sync.WaitGroup
		completed := 0
		unwound := 0
		_, err := Run(Config{Workers: 2, Mode: m}, func(c *Ctx) {
			for i := 0; i < rounds; i++ {
				cc, cancel := c.WithCancel()
				fut := cc.Spawn(func(child *Ctx) {
					n, werr := child.AwaitExternalOp("race-ext", KindExternal, op)
					if werr != nil || n != 7 {
						panic("completion payload corrupted")
					}
				})
				h := <-op.armed
				wg.Add(1)
				go func() {
					defer wg.Done()
					h.Complete(7, nil)
				}()
				if i%2 == 0 {
					cancel()
				}
				werr := fut.AwaitErr(c)
				switch {
				case werr == nil:
					completed++
				case errors.Is(werr, ErrCanceled):
					unwound++
				default:
					t.Errorf("%v round %d: unexpected error %v", m, i, werr)
				}
				cancel()
			}
		})
		wg.Wait()
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if completed+unwound != rounds {
			t.Fatalf("%v: %d completed + %d unwound != %d rounds", m, completed, unwound, rounds)
		}
		if completed == 0 {
			t.Errorf("%v: cancellation won every race; completion path untested", m)
		}
	}
}

// TestAwaitExternalDeadlineDuringBulkReinjection fires a deadline while a
// burst of external completions is being re-injected: every child must
// resolve to either its payload or ErrDeadline, and the run must drain.
func TestAwaitExternalDeadlineDuringBulkReinjection(t *testing.T) {
	const fleet = 24
	for round := 0; round < 10; round++ {
		op := newTestExtOp(fleet)
		_, err := Run(Config{Workers: 2, Mode: LatencyHiding}, func(c *Ctx) {
			cc, cancel := c.WithDeadline(2 * time.Millisecond)
			defer cancel()
			futs := make([]*Future, fleet)
			for i := range futs {
				futs[i] = cc.Spawn(func(child *Ctx) {
					child.AwaitExternalOp("burst-ext", KindExternal, op)
				})
			}
			go func() {
				// Complete whatever armed, racing the deadline callback.
				for i := 0; i < fleet; i++ {
					select {
					case h := <-op.armed:
						h.Complete(1, nil)
					case <-time.After(50 * time.Millisecond):
						return
					}
				}
			}()
			for _, f := range futs {
				if werr := f.AwaitErr(c); werr != nil &&
					!errors.Is(werr, ErrDeadline) && !errors.Is(werr, ErrCanceled) {
					t.Errorf("child error %v", werr)
				}
			}
		})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

// TestAwaitExternalBlockingCancel pins the Blocking-mode abort path: a
// canceled blocking await must unwind the task with the cause even when
// the completer is slow, and CancelExternal must have been consulted.
func TestAwaitExternalBlockingCancel(t *testing.T) {
	op := newTestExtOp(1)
	_, err := Run(Config{Workers: 2, Mode: Blocking}, func(c *Ctx) {
		cc, cancel := c.WithCancel()
		defer cancel()
		fut := cc.Spawn(func(child *Ctx) {
			child.AwaitExternalOp("blocking-ext", KindExternal, op)
		})
		h := <-op.armed
		cancel()
		// Contract: exactly one Complete per Arm, even after cancellation.
		h.Complete(0, nil)
		if werr := fut.AwaitErr(c); werr == nil {
			// The completion legitimately beat the cancel to the rendezvous.
			return
		} else if !errors.Is(werr, ErrCanceled) {
			t.Fatalf("child error = %v, want ErrCanceled", werr)
		}
		if op.canceled.Load() == 0 {
			t.Error("CancelExternal never consulted on canceled blocking await")
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestAwaitExternalStallKind checks the watchdog side of the external
// contract: an external completion deliberately does not count as a
// pending wake, so an op that never completes must surface as a
// *StallError whose oldest wait is classified KindExternal.
func TestAwaitExternalStallKind(t *testing.T) {
	op := newTestExtOp(1)
	_, err := Run(Config{Workers: 2, Mode: LatencyHiding, StallTimeout: 50 * time.Millisecond},
		func(c *Ctx) {
			c.AwaitExternalOp("never-ready", KindExternal, op)
		})
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("Run error = %v, want *StallError", err)
	}
	found := false
	for _, w := range se.Waits {
		if w.Site == "never-ready" && w.Kind == KindExternal {
			found = true
		}
	}
	if !found {
		t.Fatalf("stall report lacks the never-ready external wait: %v", se)
	}
	h := <-op.armed
	h.Complete(0, nil) // release the event reference (stale after the abort)
}

// TestAllocsAwaitExternalSteadyState is the I/O-readiness allocation
// gate: once the waiter pool is warm, a full external await round trip —
// arm, suspend, complete from another goroutine, re-inject, resume —
// must not allocate. This is the property that lets the io poller sleep
// and wake thousands of connections without GC pressure.
func TestAllocsAwaitExternalSteadyState(t *testing.T) {
	op := newTestExtOp(1)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case h := <-op.armed:
				h.Complete(1, nil)
			case <-stop:
				return
			}
		}
	}()
	_, err := Run(benchConfig(1), func(c *Ctx) {
		for i := 0; i < 64; i++ { // warm the waiter pool and resumed buffers
			c.AwaitExternalOp("alloc-ext", KindExternal, op)
		}
		if avg := testing.AllocsPerRun(200, func() {
			if n, werr := c.AwaitExternalOp("alloc-ext", KindExternal, op); n != 1 || werr != nil {
				t.Fatalf("await: (%d, %v)", n, werr)
			}
		}); avg != 0 {
			t.Errorf("external await allocates %.2f objects/op at steady state, want 0", avg)
		}
	})
	close(stop)
	<-done
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestExternalSingleInjectionPerDrain pins the acceptance property that
// poller completions ride the pfor-tree bulk path: 32 external
// completions delivered while the only worker is busy must re-enter the
// deque as ONE batch injection carrying all 32 tasks.
func TestExternalSingleInjectionPerDrain(t *testing.T) {
	const fleet = 32
	op := newTestExtOp(fleet)
	rootOp := newTestExtOp(1)
	var rootRunning, delivered atomic.Bool
	go func() {
		// Phase 1: children arm while the root is suspended; root resumes
		// first so the worker is busy when the fleet completes.
		handles := make([]ExternalHandle, 0, fleet)
		for i := 0; i < fleet; i++ {
			handles = append(handles, <-op.armed)
		}
		h := <-rootOp.armed
		h.Complete(0, nil)
		for !rootRunning.Load() {
			// Wait until the worker has actually switched into the root again —
			// otherwise the root's own wake would join the fleet's batch.
		}
		// Phase 2: complete the whole fleet while the root spins on the
		// worker; the resumed set accumulates without a drain.
		for _, ch := range handles {
			ch.Complete(1, nil)
		}
		delivered.Store(true)
	}()
	st, err := Run(Config{Workers: 1, Mode: LatencyHiding}, func(c *Ctx) {
		futs := make([]*Future, fleet)
		for i := range futs {
			futs[i] = c.Spawn(func(child *Ctx) {
				child.AwaitExternalOp("fleet-ext", KindExternal, op)
			})
		}
		// Suspend so the single worker runs (and suspends) all children.
		c.AwaitExternalOp("root-ext", KindExternal, rootOp)
		rootRunning.Store(true)
		for !delivered.Load() {
			// Busy-hold the worker until every completion is in the
			// resumed set; the next yield below drains them all at once.
		}
		for _, f := range futs {
			if werr := f.AwaitErr(c); werr != nil {
				t.Errorf("child: %v", werr)
			}
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st.ResumeBatches != 1 {
		t.Errorf("ResumeBatches = %d, want exactly 1 (one pfor-tree injection per drain)", st.ResumeBatches)
	}
	if st.ResumeBatchTasks != fleet {
		t.Errorf("ResumeBatchTasks = %d, want %d", st.ResumeBatchTasks, fleet)
	}
}

// TestAwaitExternalGeneric exercises the typed convenience wrapper.
func TestAwaitExternalGeneric(t *testing.T) {
	for _, m := range modes() {
		_, err := Run(Config{Workers: 2, Mode: m}, func(c *Ctx) {
			v, werr := AwaitExternal(c, "typed-ext", func(complete func(string, error)) func(error) {
				go complete("payload", nil)
				return nil
			})
			if v != "payload" || werr != nil {
				t.Errorf("%v: got (%q, %v)", m, v, werr)
			}
		})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
	}
}

// TestAwaitChan covers the Go-channel bridge: value delivery, closed
// channel, and cancellation releasing the bridge goroutine.
func TestAwaitChan(t *testing.T) {
	for _, m := range modes() {
		_, err := Run(Config{Workers: 2, Mode: m}, func(c *Ctx) {
			ch := make(chan int, 1)
			ch <- 99
			v, werr := AwaitChan(c, ch)
			if v != 99 || werr != nil {
				t.Errorf("%v: got (%d, %v), want (99, nil)", m, v, werr)
			}
			closed := make(chan int)
			close(closed)
			if _, werr := AwaitChan(c, closed); !errors.Is(werr, ErrChanClosed) {
				t.Errorf("%v: closed chan error = %v, want ErrChanClosed", m, werr)
			}
		})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
	}
}

func TestAwaitChanCancel(t *testing.T) {
	for _, m := range modes() {
		never := make(chan int)
		_, err := Run(Config{Workers: 2, Mode: m}, func(c *Ctx) {
			cc, cancel := c.WithDeadline(2 * time.Millisecond)
			defer cancel()
			fut := cc.Spawn(func(child *Ctx) {
				AwaitChan(child, never)
			})
			if werr := fut.AwaitErr(c); !errors.Is(werr, ErrDeadline) {
				t.Errorf("%v: child error = %v, want ErrDeadline", m, werr)
			}
		})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
	}
}

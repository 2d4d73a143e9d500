package runtime

import (
	"errors"
	"testing"
	"time"
)

// Cancellation must unwind a canceled subtree — including tasks suspended
// on long Latency waits — while the rest of the run completes normally.
func TestWithCancelUnwindsSubtree(t *testing.T) {
	for _, mode := range []Mode{LatencyHiding, Blocking} {
		t.Run(mode.String(), func(t *testing.T) {
			var survived int
			st, err := Run(Config{Workers: 4, Mode: mode}, func(c *Ctx) {
				cc, cancel := c.WithCancel()
				ch := NewChan[int](0)
				doomed := cc.Spawn(func(c2 *Ctx) {
					ch.Recv(c2) // never satisfied: unwound by cancel
				})
				ok := c.Spawn(func(c2 *Ctx) { survived++ })
				cancel()
				if got := doomed.AwaitErr(c); !errors.Is(got, ErrCanceled) {
					t.Errorf("doomed AwaitErr = %v, want ErrCanceled", got)
				}
				if got := ok.AwaitErr(c); got != nil {
					t.Errorf("surviving AwaitErr = %v, want nil", got)
				}
			})
			if err != nil {
				t.Fatalf("Run: %v (a canceled subtree must not fail the run)", err)
			}
			if survived != 1 {
				t.Errorf("surviving task did not run")
			}
			if st.TasksCanceled == 0 {
				t.Errorf("TasksCanceled = 0, want > 0")
			}
		})
	}
}

// A canceled Latency wait stops its embedded timer, and the wheel's fire
// loop may still hold a stopped timer. The waiter must therefore keep the
// timer's reference after the task unwinds, so it never returns to the
// pool and its timer is never re-armed while the wheel may hold it.
func TestCanceledLatencyWaiterNotPooled(t *testing.T) {
	_, err := Run(Config{Workers: 1}, func(c *Ctx) {
		cc, cancel := c.WithCancel()
		defer cancel()
		sleeper := cc.Spawn(func(c2 *Ctx) { c2.Latency(time.Hour) })
		// The one worker runs the sleeper while the root waits here; its
		// waiter is then the only wait on cc's scope.
		var wt *waiter
		for i := 0; wt == nil && i < 1000; i++ {
			c.Latency(time.Millisecond)
			cc.scope.mu.Lock()
			wt = cc.scope.waits
			cc.scope.mu.Unlock()
		}
		if wt == nil {
			t.Fatal("the sleeper never registered its wait")
		}
		cancel()
		if got := sleeper.AwaitErr(c); !errors.Is(got, ErrCanceled) {
			t.Fatalf("sleeper AwaitErr = %v, want ErrCanceled", got)
		}
		if refs := wt.refs.Load(); refs < 1 {
			t.Errorf("canceled Latency waiter has %d refs after unwinding, want >= 1 (the stopped timer's)", refs)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// A derived deadline must abort a suspended Latency wait early and
// surface ErrDeadline from the child's future.
func TestWithDeadlineAbortsLatency(t *testing.T) {
	start := time.Now()
	_, err := Run(Config{Workers: 2}, func(c *Ctx) {
		cc, cancel := c.WithDeadline(20 * time.Millisecond)
		defer cancel()
		slow := cc.Spawn(func(c2 *Ctx) { c2.Latency(10 * time.Second) })
		if got := slow.AwaitErr(c); !errors.Is(got, ErrDeadline) {
			t.Errorf("AwaitErr = %v, want ErrDeadline", got)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if wall := time.Since(start); wall > 5*time.Second {
		t.Errorf("run took %v; the deadline did not abort the 10s latency", wall)
	}
}

// Ctx.Err is the polling interface for CPU-bound tasks.
func TestCtxErrPolling(t *testing.T) {
	_, err := Run(Config{Workers: 1}, func(c *Ctx) {
		cc, cancel := c.WithCancel()
		if cc.Err() != nil {
			t.Errorf("Err = %v before cancel, want nil", cc.Err())
		}
		cancel()
		if got := cc.Err(); !errors.Is(got, ErrCanceled) {
			t.Errorf("Err = %v after cancel, want ErrCanceled", got)
		}
		if c.Err() != nil {
			t.Errorf("parent Err = %v, want nil (cancel must not climb the tree)", c.Err())
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// Canceling the root context fails the whole run with ErrCanceled.
func TestRootCancelFailsRun(t *testing.T) {
	st, err := Run(Config{Workers: 2}, func(c *Ctx) {
		c.Spawn(func(c2 *Ctx) { c2.Latency(10 * time.Second) })
		c.Cancel()
		c.Latency(time.Millisecond) // checkpoint: unwinds here
		t.Error("root task survived its own Cancel")
	})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("Run err = %v, want ErrCanceled", err)
	}
	if st == nil {
		t.Fatal("Run returned nil stats with error")
	}
	if st.TasksCanceled == 0 {
		t.Errorf("TasksCanceled = 0, want > 0")
	}
}

// Config.Deadline bounds the whole run and surfaces ErrDeadline, in both
// modes: a Blocking-mode Latency holds its worker but still unwinds early
// out of the wait.
func TestConfigDeadline(t *testing.T) {
	for _, m := range modes() {
		start := time.Now()
		st, err := Run(Config{Workers: 2, Mode: m, Deadline: 30 * time.Millisecond}, func(c *Ctx) {
			for i := 0; i < 4; i++ {
				c.Spawn(func(c2 *Ctx) { c2.Latency(10 * time.Second) })
			}
			c.Latency(10 * time.Second)
		})
		if !errors.Is(err, ErrDeadline) {
			t.Fatalf("%v: Run err = %v, want ErrDeadline", m, err)
		}
		if wall := time.Since(start); wall > time.Second {
			t.Errorf("%v: run took %v; deadline did not bound it", m, wall)
		}
		if st.TasksCanceled != 5 {
			t.Errorf("%v: TasksCanceled = %d, want 5", m, st.TasksCanceled)
		}
	}
}

// Two tasks panic: the first error wins, the other is recorded in
// SuppressedErrors, and both are counted.
func TestFirstErrorWinsOthersSuppressed(t *testing.T) {
	st, err := Run(Config{Workers: 2}, func(c *Ctx) {
		a := c.Spawn(func(*Ctx) { panic("first") })
		b := c.Spawn(func(*Ctx) { panic("second") })
		a.Await(c)
		b.Await(c)
	})
	if !errors.Is(err, ErrTaskPanic) {
		t.Fatalf("Run err = %v, want ErrTaskPanic", err)
	}
	if st.TasksPanicked != 2 {
		t.Errorf("TasksPanicked = %d, want 2", st.TasksPanicked)
	}
	if len(st.SuppressedErrors) != 1 {
		t.Errorf("SuppressedErrors = %q, want exactly one entry", st.SuppressedErrors)
	}
}

// A panic in one task aborts siblings suspended on Latency waits: the
// run drains promptly instead of waiting out their timers.
func TestPanicAbortsSuspendedSiblings(t *testing.T) {
	start := time.Now()
	_, err := Run(Config{Workers: 4}, func(c *Ctx) {
		for i := 0; i < 6; i++ {
			c.Spawn(func(c2 *Ctx) { c2.Latency(10 * time.Second) })
		}
		c.Latency(5 * time.Millisecond)
		panic("boom")
	})
	if !errors.Is(err, ErrTaskPanic) {
		t.Fatalf("Run err = %v, want ErrTaskPanic", err)
	}
	if wall := time.Since(start); wall > 5*time.Second {
		t.Errorf("run took %v; suspended siblings were not aborted", wall)
	}
}

// Blocking-mode waits must also honor cancellation: a receiver waiting
// with its worker held is woken by the deadline's abort.
func TestBlockingModeCancelUnblocksRecv(t *testing.T) {
	start := time.Now()
	_, err := Run(Config{Workers: 2, Mode: Blocking}, func(c *Ctx) {
		cc, cancel := c.WithDeadline(20 * time.Millisecond)
		defer cancel()
		ch := NewChan[int](0)
		stuck := cc.Spawn(func(c2 *Ctx) { ch.Recv(c2) })
		if got := stuck.AwaitErr(c); !errors.Is(got, ErrDeadline) {
			t.Errorf("AwaitErr = %v, want ErrDeadline", got)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if wall := time.Since(start); wall > 5*time.Second {
		t.Errorf("run took %v; blocking recv ignored the deadline", wall)
	}
}

// Spawning under an already-canceled scope unwinds at the next
// checkpoint: the children inherit the canceled scope and never run
// their bodies past it.
func TestSpawnAfterCancelUnwinds(t *testing.T) {
	var ran bool
	_, err := Run(Config{Workers: 2}, func(c *Ctx) {
		cc, cancel := c.WithCancel()
		cancel()
		fut := cc.Spawn(func(c2 *Ctx) {
			c2.Latency(time.Millisecond)
			ran = true
		})
		if got := fut.AwaitErr(c); !errors.Is(got, ErrCanceled) {
			t.Errorf("AwaitErr = %v, want ErrCanceled", got)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ran {
		t.Error("child under canceled scope ran past its first checkpoint")
	}
}

// Value.AwaitErr surfaces the child's cancellation with the zero value.
func TestValueAwaitErr(t *testing.T) {
	_, err := Run(Config{Workers: 2}, func(c *Ctx) {
		cc, cancel := c.WithCancel()
		v := SpawnValue(cc, func(c2 *Ctx) int {
			c2.Latency(10 * time.Second)
			return 42
		})
		cancel()
		got, gerr := v.AwaitErr(c)
		if !errors.Is(gerr, ErrCanceled) {
			t.Errorf("AwaitErr err = %v, want ErrCanceled", gerr)
		}
		if got != 0 {
			t.Errorf("AwaitErr value = %d, want zero", got)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

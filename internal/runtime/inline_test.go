package runtime

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// Tests for joins as light edges (Future.AwaitErr → Ctx.popUnstolen →
// Ctx.runInline): an awaited child that is still fresh at the bottom of
// the awaiter's own deque runs as a function call; anything else suspends.

func testFib(c *Ctx, n int) int {
	if n < 2 {
		return n
	}
	a := SpawnValue(c, func(cc *Ctx) int { return testFib(cc, n-1) })
	b := testFib(c, n-2)
	return a.Await(c) + b
}

// TestUnstolenJoinsAreCalls: with one worker nothing can be stolen, so a
// fork-join program (U = 0) never suspends and every spawned child runs as
// a call — the only switch into a coroutine is the root's.
func TestUnstolenJoinsAreCalls(t *testing.T) {
	cases := []struct {
		name string
		root func(c *Ctx)
	}{
		{"fib", func(c *Ctx) {
			if got := testFib(c, 15); got != 610 {
				t.Errorf("fib(15) = %d, want 610", got)
			}
		}},
		{"ladder", func(c *Ctx) {
			for i := 0; i < 1000; i++ {
				c.Spawn(benchLeaf).Await(c)
			}
		}},
	}
	for _, tc := range cases {
		st, err := Run(benchConfig(1), tc.root)
		if err != nil {
			t.Fatalf("%s: Run: %v", tc.name, err)
		}
		spawns := st.TasksSpawned - 1 // the root is not spawned by a task
		if st.Suspensions != 0 || st.InlineJoins != spawns || st.TasksRun != 1 {
			t.Errorf("%s: Suspensions=%d InlineJoins=%d TasksRun=%d, want 0, %d (every spawn), 1 (the root)",
				tc.name, st.Suspensions, st.InlineJoins, st.TasksRun, spawns)
		}
	}
}

// TestResumedSingletonIsNotRerun is the fresh-vs-resumed hazard: a child
// that started, suspended, and was re-injected alone sits on the deque as
// a singleton node whose task's future is the awaited one — exactly what
// an unstolen fresh child looks like. Its body must not be called again.
func TestResumedSingletonIsNotRerun(t *testing.T) {
	var bodies atomic.Int64
	st, err := Run(benchConfig(1), func(c *Ctx) {
		started := NewChan[int](0)
		fut := c.Spawn(func(cc *Ctx) {
			bodies.Add(1)
			started.Send(cc, 1)
			cc.Latency(2 * time.Millisecond)
		})
		// Suspend so the worker pops and starts the child; the child's send
		// brings the root back while the child sits out its latency.
		started.Recv(c)
		// Hold the worker until the child's wakeup lands in the resumed set,
		// then inject it the way the worker loop would. The root holds the
		// owner role, so calling drainResumed here is owner-side.
		w := c.t.w
		for !w.resumedPending.Load() {
			time.Sleep(50 * time.Microsecond)
		}
		w.drainResumed()
		if n := w.active.q.Len(); n != 1 {
			t.Errorf("deque holds %d items after the drain, want the child alone", n)
		}
		if err := fut.AwaitErr(c); err != nil {
			t.Errorf("AwaitErr: %v", err)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if bodies.Load() != 1 {
		t.Errorf("child body ran %d times, want exactly once", bodies.Load())
	}
	// Root receive, child latency, and the root's join — a real one.
	if st.InlineJoins != 0 || st.Suspensions != 3 {
		t.Errorf("InlineJoins=%d Suspensions=%d, want 0 and 3", st.InlineJoins, st.Suspensions)
	}
}

// TestRecycledNodeIdentityIsNotTrusted: the join's peek compares node
// identities, and a singleton node is its task shell's own — when a
// finished child's shell is recycled into the next spawn, the awaited
// future's node sits at the bottom around a different task. A match must
// still be checked after the pop, and the wrong item pushed back.
//
// At P = 1 the finished child's shell is the top of the worker's task
// free list, so the next spawn reuses it deterministically (also under
// -race: the free list is a slice, not a sync.Pool).
func TestRecycledNodeIdentityIsNotTrusted(t *testing.T) {
	var other atomic.Int64
	st, err := Run(benchConfig(1), func(c *Ctx) {
		started := NewChan[int](0)
		first := c.Spawn(func(cc *Ctx) { started.Send(cc, 1) })
		// The root suspends; the worker runs the child to completion and
		// recycles its shell before the root resumes.
		started.Recv(c)
		second := c.Spawn(func(*Ctx) { other.Add(1) })
		if first.nd != second.nd {
			t.Fatal("the second spawn did not reuse the first child's shell; the hazard went untested")
		}
		if got := c.popUnstolen(first); got != nil {
			t.Error("popUnstolen returned a task that merely reused the awaited child's node")
			c.runInline(got) // keep the run finishing
		}
		if n := c.t.w.active.q.Len(); n != 1 {
			t.Errorf("deque holds %d items after the refused pop, want the second task pushed back", n)
		}
		first.Await(c)
		second.Await(c)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// The second task's own join is a light edge: it is the fresh child.
	if other.Load() != 1 || st.InlineJoins != 1 {
		t.Errorf("second task ran %d times, InlineJoins=%d; want 1 and 1", other.Load(), st.InlineJoins)
	}
}

// TestInlinedChildMigratesWithHost: a heavy edge inside an inlined child
// suspends the host task, which may resume on another worker. Afterwards
// the child's Ctx and the parent's must both name the new worker — there
// is one task underneath them.
func TestInlinedChildMigratesWithHost(t *testing.T) {
	const hosts, rounds = 32, 8
	for attempt := 0; attempt < 20; attempt++ {
		var inlined, migrated atomic.Int64
		_, err := Run(Config{Workers: 4, Seed: uint64(attempt)}, func(c *Ctx) {
			For(c, 0, hosts, 1, func(hc *Ctx, _ int) {
				for r := 0; r < rounds; r++ {
					var wasInline bool
					var before, after int
					fut := hc.Spawn(func(cc *Ctx) {
						wasInline = cc.t == hc.t
						before = cc.Worker()
						cc.Latency(200 * time.Microsecond)
						after = cc.Worker()
						if cc.t.w.id != after {
							t.Errorf("child Ctx.Worker() = %d, task is on worker %d", after, cc.t.w.id)
						}
					})
					fut.Await(hc)
					if !wasInline {
						continue // stolen before the join: an ordinary suspension
					}
					inlined.Add(1)
					// No scheduling point lies between the child's return and
					// here, so the parent must see the worker the child ended on.
					if got := hc.Worker(); got != after {
						t.Errorf("parent Ctx.Worker() = %d after an inlined child that ended on worker %d", got, after)
					}
					if before != after {
						migrated.Add(1)
					}
				}
			})
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if inlined.Load() == 0 {
			t.Fatal("no join ran its child as a call")
		}
		if migrated.Load() > 0 {
			return
		}
	}
	t.Fatal("no inlined child resumed on another worker in 20 runs; the migration path went untested")
}

// TestInlinedChildPanicStopsAtItsFrame: a panic inside an inlined child
// becomes the child's future error and is fatal to the run, exactly as if
// the child had run on its own goroutine — but the parent's frame is not
// unwound by it: AwaitErr returns, and the parent stops at its own next
// checkpoint (the panic canceled the root scope).
func TestInlinedChildPanicStopsAtItsFrame(t *testing.T) {
	var childErr error
	var returned, pastCheckpoint bool
	st, err := Run(benchConfig(1), func(c *Ctx) {
		childErr = c.Spawn(func(*Ctx) { panic("boom") }).AwaitErr(c)
		returned = true
		c.Spawn(benchLeaf)
		pastCheckpoint = true
	})
	if !errors.Is(err, ErrTaskPanic) {
		t.Fatalf("Run err = %v, want ErrTaskPanic", err)
	}
	if !errors.Is(childErr, ErrTaskPanic) {
		t.Errorf("AwaitErr = %v, want ErrTaskPanic", childErr)
	}
	if !returned || pastCheckpoint {
		t.Errorf("parent returned from AwaitErr = %v, ran past its next checkpoint = %v; want true, false", returned, pastCheckpoint)
	}
	if st.InlineJoins != 1 || st.TasksPanicked != 1 || st.TasksCanceled != 1 {
		t.Errorf("InlineJoins=%d TasksPanicked=%d TasksCanceled=%d, want 1 (the child), 1 (the child), 1 (the root)",
			st.InlineJoins, st.TasksPanicked, st.TasksCanceled)
	}
}

// TestInlinedChildCancellation: an inlined child under a canceled derived
// scope unwinds at its own checkpoint — its scope, not the host task's, is
// the one tested while it runs — and the parent carries on under its own
// live scope. The other way round, a child that cancels the scope it shares
// with its parent and returns normally leaves the parent to unwind at the
// parent's next checkpoint.
func TestInlinedChildCancellation(t *testing.T) {
	var childErr, parentErr error
	var childPastCheckpoint, parentPastCheckpoint bool
	st, err := Run(benchConfig(1), func(c *Ctx) {
		sub, cancel := c.WithCancel()
		fut := sub.Spawn(func(cc *Ctx) {
			cc.Spawn(benchLeaf) // checkpoint: born canceled, unwinds here
			childPastCheckpoint = true
		})
		cancel()
		childErr = fut.AwaitErr(c)
		c.Spawn(benchLeaf).Await(c) // the root's own scope is live again

		scoped, cancelScoped := c.WithCancel()
		defer cancelScoped()
		parentErr = scoped.Spawn(func(pc *Ctx) {
			if e := pc.Spawn(func(*Ctx) { cancelScoped() }).AwaitErr(pc); e != nil {
				t.Errorf("child that returned normally has error %v", e)
			}
			pc.Spawn(benchLeaf) // checkpoint: the parent's scope is canceled
			parentPastCheckpoint = true
		}).AwaitErr(c)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !errors.Is(childErr, ErrCanceled) || childPastCheckpoint {
		t.Errorf("canceled child: AwaitErr = %v, ran past its checkpoint = %v; want ErrCanceled, false", childErr, childPastCheckpoint)
	}
	if !errors.Is(parentErr, ErrCanceled) || parentPastCheckpoint {
		t.Errorf("canceled parent: AwaitErr = %v, ran past its checkpoint = %v; want ErrCanceled, false", parentErr, parentPastCheckpoint)
	}
	if st.InlineJoins != 4 || st.TasksCanceled != 2 || st.Suspensions != 0 {
		t.Errorf("InlineJoins=%d TasksCanceled=%d Suspensions=%d, want 4, 2, 0", st.InlineJoins, st.TasksCanceled, st.Suspensions)
	}
}

// TestUnrelatedBottomItemIsNotInlined is the strict-bottom rule: a
// fire-and-forget task below the awaited child is not run by the join —
// the awaiter would be buried under work it does not depend on. The join
// puts the item back and suspends; the worker then runs both in LIFO order
// on their own goroutines.
func TestUnrelatedBottomItemIsNotInlined(t *testing.T) {
	var order []string
	st, err := Run(benchConfig(1), func(c *Ctx) {
		awaited := c.Spawn(func(cc *Ctx) {
			if cc.t == c.t {
				t.Error("awaited child ran on the awaiter's goroutine")
			}
			order = append(order, "awaited")
		})
		c.Spawn(func(cc *Ctx) {
			if cc.t == c.t {
				t.Error("fire-and-forget task ran on the awaiter's goroutine")
			}
			order = append(order, "forgotten")
		})
		awaited.Await(c)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(order) != 2 || order[0] != "forgotten" || order[1] != "awaited" {
		t.Errorf("run order = %v, want [forgotten awaited] (LIFO, as if the join had not looked)", order)
	}
	if st.InlineJoins != 0 || st.Suspensions != 1 {
		t.Errorf("InlineJoins=%d Suspensions=%d, want 0 and 1", st.InlineJoins, st.Suspensions)
	}
}

// TestBlockingHelpRunsTasksAsCalls: Blocking-mode joins help through the
// same runInline, for every task they pop — not only the awaited child.
func TestBlockingHelpRunsTasksAsCalls(t *testing.T) {
	var ran atomic.Int64
	st, err := Run(Config{Workers: 1, Mode: Blocking}, func(c *Ctx) {
		first := c.Spawn(func(*Ctx) { ran.Add(1) })
		for i := 0; i < 9; i++ {
			c.Spawn(func(*Ctx) { ran.Add(1) })
		}
		first.Await(c) // helps through all ten, bottom first
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ran.Load() != 10 || st.InlineJoins != 10 || st.TasksRun != 1 {
		t.Errorf("ran=%d InlineJoins=%d TasksRun=%d, want 10, 10, 1", ran.Load(), st.InlineJoins, st.TasksRun)
	}
}

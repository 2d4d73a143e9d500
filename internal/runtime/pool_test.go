package runtime

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// Tests for pooled task-shell reuse (pool.go): a shell's suspension epoch
// is never reset across lives, so wakeups armed for a previous life can
// never claim a suspension of the current one, and a recycled shell
// carries no cancel scope, future, or error state into its next life.

// TestPooledShellStaleWakeupFailsClaim drives a shell through two lives by
// hand and fires a wakeup retained from life one while life two has an
// open suspension: the stale claim must fail and the current life's wakeup
// must still succeed.
func TestPooledShellStaleWakeupFailsClaim(t *testing.T) {
	w := harnessWorkers(1)[0]
	tk := w.acquireTask(func(*Ctx) {})
	tk.w = w
	home := w.active

	// Life one: open a suspension, keep a duplicate reference to its
	// waiter (the "stale wakeup"), and let the legitimate wake claim it.
	home.suspend()
	wt1 := (&Ctx{t: tk}).beginWait("pool-test-life1", KindOther, home, nil)
	wt1.refs.Add(1) // the stale duplicate fired below
	if !wt1.wake(nil) {
		t.Fatal("life-one wake failed to claim its own suspension")
	}
	epoch1 := tk.epoch.Load()

	// Recycle the shell and re-arm it, as Spawn would.
	w.releaseTask(tk)
	tk2 := w.acquireTask(func(*Ctx) {})
	if tk2 != tk {
		t.Fatalf("free list returned a different shell (got %p, want %p)", tk2, tk)
	}
	if tk.scope != nil || tk.fut != nil || tk.err != nil || tk.wakeErr != nil {
		t.Fatalf("recycled shell carries stale state: scope=%v fut=%v err=%v wakeErr=%v",
			tk.scope, tk.fut, tk.err, tk.wakeErr)
	}
	if got := tk.epoch.Load(); got != epoch1 {
		t.Fatalf("epoch reset across lives: %d, want %d (monotonic)", got, epoch1)
	}

	// Life two: open a new suspension, then fire the stale life-one
	// wakeup. Its claim CAS must fail without disturbing life two.
	tk.w = w
	home.suspend()
	wt2 := (&Ctx{t: tk}).beginWait("pool-test-life2", KindOther, home, nil)
	if wt1.wake(nil) {
		t.Fatal("stale life-one wakeup claimed a life-two suspension")
	}
	wt1.release()
	if !wt2.wake(nil) {
		t.Fatal("life-two wake failed after the stale wakeup was rejected")
	}
}

// TestPooledShellsIsolateCancellation reuses shells across canceled and
// healthy subtrees inside one Run: tasks spawned after a cancellation —
// on shells that just unwound with a cancel error — must run normally,
// and the canceled subtree's error must not leak into them. The workload
// sizes (well past taskCacheCap spawns per phase) force reuse through
// both the worker-local free list and the overflow pool.
func TestPooledShellsIsolateCancellation(t *testing.T) {
	const n = 200
	var healthy atomic.Int64
	st, err := Run(Config{Workers: 2, Mode: LatencyHiding, Seed: 1}, func(c *Ctx) {
		// Phase 1: a canceled subtree with suspended pooled tasks.
		sub, cancel := c.WithCancel()
		futs := make([]*Future, n)
		for i := range futs {
			futs[i] = sub.Spawn(func(cc *Ctx) {
				cc.Latency(10 * time.Second) // parks until the abort
			})
		}
		cancel()
		for _, f := range futs {
			if werr := f.AwaitErr(c); !errors.Is(werr, ErrCanceled) {
				t.Errorf("canceled subtree child returned %v, want ErrCanceled", werr)
			}
		}
		// Phase 2: the same shells, reused for healthy work that also
		// exercises suspension (so stale life-one epochs would surface).
		For(c, 0, n, 1, func(cc *Ctx, i int) {
			cc.Latency(time.Microsecond)
			healthy.Add(1)
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := healthy.Load(); got != n {
		t.Fatalf("healthy phase ran %d bodies, want %d", got, n)
	}
	if st.TasksCanceled < n {
		t.Fatalf("TasksCanceled = %d, want >= %d", st.TasksCanceled, n)
	}
}

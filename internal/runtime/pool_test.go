package runtime

import (
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"lhws/internal/deque"
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
	tk := w.acquireTask(funcRunner(func(*Ctx) {}))
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
	tk2 := w.acquireTask(funcRunner(func(*Ctx) {}))
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
// both the worker-local free list and the run's pool.
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

// TestRecycledRdequeChangesOwner: idle deques move between workers through
// the run's pool. A deque put by worker A and taken by worker B must be
// owned by B with its target marker cleared, and its Chase–Lev indices
// must be kept, so a thief still holding the old pointer performs an
// ordinary steal against the deque's new contents.
func TestRecycledRdequeChangesOwner(t *testing.T) {
	ws := harnessWorkers(2)
	a, b := ws[0], ws[1]
	rt := a.rt
	// Which deque the pool returns depends on the P the test goroutine is
	// on (and on random drops under -race), so retry with a fresh deque.
	var d *rdeque
	var top0, bottom0 int64
	for attempt := 0; attempt < 100 && d == nil; attempt++ {
		cand := a.getRdeque()
		if cand.owner != a {
			t.Fatal("getRdeque on worker A returned a deque it does not own")
		}
		for i := 0; i < 3; i++ { // advance the indices: push, then steal
			cand.q.PushBottom(i)
			if _, ok := cand.q.PopTop(); !ok {
				t.Fatal("PopTop on a one-item deque failed")
			}
		}
		cand.noteTarget(time.Now().Add(time.Hour).UnixNano(), nil)
		top0, bottom0 = chaseLevIndices(cand.q)
		a.putRdeque(cand)
		if cand.owner != nil {
			t.Fatal("putRdeque left an owner on the recycled deque")
		}
		if got := b.getRdeque(); got == cand {
			d = cand
		}
	}
	if d == nil {
		t.Fatal("worker B never got worker A's deque back from the pool; the hand-over went untested")
	}
	if d.owner != b {
		t.Error("getRdeque on worker B did not re-own the recycled deque")
	}
	if d.targetNs.Load() != 0 || d.targetScope.Load() != nil || rt.activeTargets.Load() != 0 {
		t.Errorf("target marker survived recycling: targetNs=%d activeTargets=%d", d.targetNs.Load(), rt.activeTargets.Load())
	}
	if top, bottom := chaseLevIndices(d.q); top != top0 || bottom != bottom0 || top == 0 {
		t.Errorf("indices after recycling top=%d bottom=%d, want the monotonic %d/%d kept", top, bottom, top0, bottom0)
	}
	stale := d.q // a thief's pointer from the deque's life on worker A
	d.q.PushBottom("b-item")
	if it, ok := stale.PopTop(); !ok || it != "b-item" {
		t.Errorf("stale thief stole (%v, %v), want worker B's item", it, ok)
	}
}

// chaseLevIndices reads a ChaseLev's unexported top and bottom indices.
func chaseLevIndices(q *deque.ChaseLev) (top, bottom int64) {
	v := reflect.ValueOf(q).Elem()
	return v.FieldByName("top").FieldByName("v").Int(), v.FieldByName("bottom").FieldByName("v").Int()
}

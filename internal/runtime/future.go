package runtime

import (
	"sync"
	"sync/atomic"

	"lhws/internal/faultpoint"
)

// Future is the completion handle of a spawned task.
//
// Futures are heap-allocated once and never recycled — the caller may hold
// them indefinitely. Spawn allocates its Future alone; SpawnValue, For and
// MapReduce embed it in the child's spawn record.
type Future struct {
	mu sync.Mutex
	// done is stored (under mu, after err) exactly once per life; a reader
	// that loads true may read err without the lock. Joins on a child that
	// has already finished — most joins of a fan-out — take that path.
	done atomic.Bool
	err  error // the child's outcome: nil, cancellation cause, or wrapped panic
	// w0 heads the list of suspended waiters, linked through
	// waiter.fnext. Almost every future has at most one, so the list
	// costs one word where a slice would cost three.
	w0 *waiter
	// nd is the deque node the child was pushed in, an identity only: a
	// join compares it with the bottom item before it pops anything.
	nd *pforNode
}

// complete marks the future done with the child's outcome and wakes its
// waiters. w is the completing task's worker, whose owner role the
// completing task holds (inside runInline too): a latency-hiding join wait
// is a light edge, so each waiter continues on w — pushed onto w's active
// deque, as Figure 3 pushes a join vertex enabled by its last predecessor
// — unless the waiter has not yielded yet, or faults are injected (see
// waiter.continueOn). Waiters are delivered while f.mu is held, so a
// racing cancelWait either dequeues its waiter first or finds it
// consumed; that is safe because delivery takes only leaf locks
// (injector, deque, worker) and never a Future's.
func (f *Future) complete(err error, w *worker) {
	f.mu.Lock()
	if f.done.Load() {
		f.mu.Unlock()
		return
	}
	f.err = err
	f.done.Store(true)
	pushed := false
	for wt := f.w0; wt != nil; {
		next := wt.fnext
		wt.fnext = nil
		if wt.join && w.rt.cfg.Faults == nil {
			pushed = wt.continueOn(w) || pushed
		} else {
			wt.deliver(faultpoint.ResumeInject)
		}
		wt = next
	}
	f.w0 = nil
	f.mu.Unlock()
	if pushed {
		w.rt.published()
	}
}

// cancelWait implements wakeSource: a scope cancellation dequeues the
// waiter (if the completion has not already consumed it) and wakes the
// task with err so it unwinds instead of waiting on a completion that may
// never come.
func (f *Future) cancelWait(wt *waiter, err error) {
	f.mu.Lock()
	removed := false
	for p := &f.w0; *p != nil; p = &(*p).fnext {
		if *p == wt {
			*p = wt.fnext
			wt.fnext = nil
			removed = true
			break
		}
	}
	f.mu.Unlock()
	wt.wake(err)
	if removed {
		wt.release() // the event reference the waiter registration held
	}
}

// Done reports whether the future has completed. It never blocks.
func (f *Future) Done() bool { return f.done.Load() }

// Err returns the child's outcome once the future has completed: nil on
// success, ErrCanceled/ErrDeadline (possibly via a derived scope) if the
// child was unwound by cancellation, or an ErrTaskPanic-wrapped error if
// it panicked. Before completion Err returns nil; call it after Await,
// or use AwaitErr.
func (f *Future) Err() error {
	if f.done.Load() {
		return f.err
	}
	return nil
}

// Await blocks the calling task until the spawned task completes,
// discarding the child's error (retrieve it with Err, or use AwaitErr).
//
// What the join costs depends on where the child is (DESIGN §8). If the
// child is still fresh at the bottom of the caller's own deque — nobody
// stole it, and the worker would pop and run exactly it next — the join is
// a light edge: the caller pops the child and runs it as a function call.
// Otherwise, in LatencyHiding mode, an Await on an incomplete future
// yields the task without pinning any deque, and the join is still a
// light edge: the worker that completes the child pushes the task onto
// its own active deque, so the awaiter continues where its last child
// finished (Figure 3's join vertex, enabled by its last predecessor).
//
// In Blocking mode, the worker first helps — repeatedly popping its own
// deque and running tasks as function calls (the conventional join
// protocol of blocking work-stealing runtimes; without it a single worker
// would deadlock on its own children) — and once no local work remains
// the task waits for the completion on the same waiter, holding its
// worker.
//
// If the calling task's scope is canceled, Await unwinds it — before
// waiting, or early out of the wait.
func (f *Future) Await(c *Ctx) { _ = f.AwaitErr(c) }

// AwaitErr is Await returning the child's outcome: nil on success, or
// the error the child failed with (cancellation cause or wrapped panic).
func (f *Future) AwaitErr(c *Ctx) error {
	c.checkpoint()
	if f.done.Load() {
		return f.err
	}
	if c.t.rt.cfg.Mode == Blocking {
		for c.helpOne() {
			if f.done.Load() {
				return f.err
			}
			c.checkpoint()
		}
	} else if child := c.popUnstolen(f); child != nil {
		return c.runInline(child)
	}
	c.injectFault(faultpoint.Suspend)
	f.mu.Lock()
	if f.done.Load() {
		f.mu.Unlock()
		return f.err
	}
	wt := c.beginWait("await", KindFuture, nil, f)
	wt.refs.Add(1) // the registration's event reference
	wt.fnext = f.w0
	f.w0 = wt
	f.mu.Unlock()
	c.armScope(wt)
	c.finishWait(wt)
	return f.Err()
}

// popUnstolen pops the bottom item of the caller's active deque if — and
// only if — it is f's child and that child is fresh: never switched into, never
// run, so not a started child that suspended and was re-injected alone
// (drainResumed pushes those as singleton nodes too). The rule is
// deliberately strict: the bottom item is what this worker would run next
// if the caller suspended, so running it now is the schedule Figure 3
// prescribes, and the caller is never buried under work it does not depend
// on. That also requires that no resumed task is waiting for injection on
// this worker — drainResumed would put it below the child — so with one
// pending the join suspends and the worker loop gets its scheduling point.
//
// A join that will suspend anyway must not pay for the look: an owner-side
// peek compares the bottom item's identity with the node f's child was
// pushed in, and only a match is popped. (Popping and pushing back instead
// stores to the deque's bottom twice, taking its cache line from every
// polling thief; on the serve workload, where each request's first join
// finds a sibling at the bottom, that cost ≈4 % of throughput.) A node is
// its task shell's own, and shells are recycled, so a matching identity
// can be the child re-injected after it started or the shell's next life:
// the popped item is checked for real and pushed back if it is not the
// fresh child. The awaiting task holds its worker's owner role, so the
// peek, the pop and the push back are owner-side.
func (c *Ctx) popUnstolen(f *Future) *task {
	w := c.t.w
	if w.resumedPending.Load() {
		return nil
	}
	if it, ok := w.active.q.PeekBottom(); !ok || it.(*pforNode) != f.nd {
		return nil
	}
	it, ok := w.active.q.PopBottom()
	if !ok {
		return nil
	}
	if child := it.(*pforNode).t; child != nil && child.fut == f && child.fresh {
		return w.resolveItem(it)
	}
	w.active.q.PushBottom(it)
	return nil
}

// helpOne runs one task from the caller's own deque as a function call;
// false means the deque was empty. Blocking mode only, where tasks never
// report a suspension to the worker loop: every item is a fresh
// singleton, so it runs through the same runInline as a latency-hiding
// join on an unstolen child. A waiter that helps until the deque is dry
// waits with nothing local left behind it: while its worker is held,
// nothing but its own task pushes there. The waiting task holds its
// worker's owner role and runs the popped task on its own goroutine.
func (c *Ctx) helpOne() bool {
	it, ok := c.t.w.active.q.PopBottom()
	if !ok {
		return false
	}
	c.runInline(c.t.w.resolveItem(it))
	return true
}

// Value is a Future carrying a result of type T. Create with SpawnValue.
//
// A Value is the child's whole spawn record: it embeds the child's Future
// and holds the function and, once the child returns, its result, so a
// SpawnValue is one allocation. It contains a mutex and must not be copied;
// hold the *Value.
type Value[T any] struct {
	fut Future
	f   func(*Ctx) T // the child's body; nil once the child has begun
	v   T
}

// run is the child's body. It drops f before calling it, so a Value held
// after its Await keeps nothing f captured alive, panic or not. (Only a
// TaskBody fault injected before run leaves f in place.)
func (v *Value[T]) run(c *Ctx) {
	f := v.f
	v.f = nil
	v.v = f(c)
}

// SpawnValue spawns f as a child task and returns a handle from which the
// result can be awaited. The handle is the child's spawn record (see
// Value): besides whatever f's closure costs, a steady-state SpawnValue
// allocates only the Value.
func SpawnValue[T any](c *Ctx, f func(*Ctx) T) *Value[T] {
	v := &Value[T]{f: f}
	c.spawn(v, &v.fut)
	return v
}

// Await blocks until the child completes and returns its result. If the
// child failed (panic or cancellation) the zero value is returned; use
// AwaitErr to distinguish.
func (v *Value[T]) Await(c *Ctx) T {
	v.fut.Await(c)
	return v.v
}

// AwaitErr blocks until the child completes and returns its result, or
// the error it failed with (in which case the result is the zero value).
func (v *Value[T]) AwaitErr(c *Ctx) (T, error) {
	if err := v.fut.AwaitErr(c); err != nil {
		var zero T
		return zero, err
	}
	return v.v, nil
}

// Done reports whether the result is available.
func (v *Value[T]) Done() bool { return v.fut.Done() }

// Err returns the child's outcome once complete; see Future.Err.
func (v *Value[T]) Err() error { return v.fut.Err() }

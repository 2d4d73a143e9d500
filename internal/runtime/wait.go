package runtime

import (
	"sync/atomic"
	"time"

	"lhws/internal/faultpoint"
	"lhws/internal/timerwheel"
)

// waiter represents one wait of one task: a claimable wakeup token.
// Wakeups for a waiting task can arrive from several goroutines — the
// Latency timer, a channel peer, a future completion, a cancellation
// abort, and (under fault injection) duplicates of any of those. Exactly
// one of them may resume the task; the rest must be no-ops. The claim is
// a CAS on the task's suspension epoch: the epoch captured when the wait
// began is only valid until someone advances it, so duplicated or stale
// wakeups — including a delayed duplicate arriving after the task has
// already waited again elsewhere, or after the task's pooled shell has
// been reused for a new life — fail the CAS and fall away harmlessly
// (shell epochs are never reset; see task).
//
// Both modes wait through waiters, in one of three shapes. A
// latency-hiding wait on a heavy edge (a timer, a channel, an external
// completion) has a home deque: the task suspends (its worker moves on)
// and the claim re-injects it there. A latency-hiding join wait (join
// set) has no home: the task yields without pinning a deque, and the
// child's completer continues it on its own worker (continueOn). A
// Blocking-mode waiter has neither: the task's worker stays held in
// runTask for the wait — the baseline's cost — and the claim hands the
// task straight back.
//
// Waiters are pooled. Recycling is reference-counted: refs counts the
// parties that may still dereference the waiter — the suspending task
// (through finishWait), the registered cancellation abort, and each
// armed event delivery (timer, queue entry, future waiter entry,
// fault-injected duplicate). A waiter returns to the pool only at
// refcount zero, so a late waker always sees the frozen epoch of the
// suspension it was armed for, never a recycled waiter's.
//
// The Latency timer is embedded (tm) and re-armed in place, which is
// safe only because the timer's reference is consumed by the fire's
// deliver alone. A Stop that wins in abortWait must not release it: the
// wheel's fire loop may still hold &tm in the batch it is scanning, and
// a recycled waiter re-arming tm would let that loop fire the new arming.
// A waiter whose timer was stopped therefore never returns to the pool;
// the GC takes it.
type waiter struct {
	// prev, next and scope make the waiter an entry of its scope's
	// intrusive wait list (cancelScope.waits): registering and
	// deregistering are O(1) pointer updates under the scope's mu, which
	// guards all three; scope is non-nil exactly while the waiter is on a
	// list.
	prev, next *waiter
	scope      *cancelScope
	t          *task
	epoch      uint64
	home       *rdeque          // nil in Blocking mode and for a join
	tm         timerwheel.Timer // the Latency timer, armed in place
	timed      bool             // tm is armed for this suspension
	join       bool             // a latency-hiding join wait (see continueOn)
	// fnext links the waiter into its Future's waiter list (guarded by
	// the Future's mu).
	fnext *waiter
	// src, when non-nil, is the queue the waiter is parked on (a Future
	// or a Chan); the cancellation abort asks it to dequeue the waiter
	// before waking it.
	src wakeSource
	// ext, when non-nil, is the external operation this waiter awaits
	// (AwaitExternalOp); the cancellation abort interrupts it before
	// waking the task.
	ext  ExternalOp
	kind WaitKind
	refs atomic.Int32
	// site, since and worker describe the suspension for the watchdog,
	// which reads them (with kind and home) from the scope's wait list.
	// They are written before the waiter is registered there.
	site   string
	since  time.Time
	worker int
	// extN/extErr are the external completion's payload, written by
	// Complete before the wake and copied onto the task by the winning
	// claim (so the task can read them after the waiter is recycled).
	extN   int
	extErr error
}

// wakeSource is a wakeup queue a waiter can be parked on. cancelWait
// must remove wt from the queue if still present (releasing the event
// reference the queue held) and then wake wt with err.
type wakeSource interface {
	cancelWait(wt *waiter, err error)
}

// waitHome is the task side of entering a wait on a heavy edge: it runs
// the Suspend fault point and returns the deque the task will resume to —
// the worker's active deque, its suspension counted — or nil in Blocking
// mode, where the task keeps its worker for the wait. A join wait takes no
// home in either mode (Future.AwaitErr); beginWait tells the two nil
// homes apart by the run's mode.
func (c *Ctx) waitHome() *rdeque {
	c.injectFault(faultpoint.Suspend)
	if c.t.rt.cfg.Mode == Blocking {
		return nil
	}
	home := c.t.w.active
	home.suspend()
	return home
}

// beginWait opens a wait of c's task: it advances the task's epoch (odd =
// waiting) and stamps the waiter with its home deque (from waitHome, or
// nil for a join) and what the watchdog reports (site, kind, start time,
// worker). It runs task-side, before the waiter is published to any
// wakeup source.
//
// It is a Ctx method because the wait belongs to the calling handle's
// scope, not the task's spawn scope: armScope registers it there, and a
// derived handle (WithTarget) or an inlined child carries a target the
// task's own scope does not.
//
// The returned waiter starts with two references: the task's own
// (released at the end of finishWait) and the cancellation scope's
// (consumed by abortWait, or released by finishWait when the wait
// deregisters cleanly). Event sources add their own before publishing.
func (c *Ctx) beginWait(site string, kind WaitKind, home *rdeque, src wakeSource) *waiter {
	t := c.t
	if t.spawning != 0 {
		panic("runtime: task suspends inside spawn")
	}
	e := t.epoch.Add(1)
	wt := t.rt.getWaiter()
	wt.t = t
	wt.epoch = e
	wt.home = home
	wt.timed = false
	wt.join = home == nil && t.rt.cfg.Mode != Blocking
	wt.src = src
	wt.ext = nil
	wt.kind = kind
	wt.site = site
	wt.since = time.Now()
	wt.worker = t.w.id
	wt.extN, wt.extErr = 0, nil
	wt.refs.Store(2)
	if home == nil {
		// Blocking mode, where the worker waits too and nothing suspends;
		// or a join, which yields but pins no deque and resumes wherever
		// its child completes. The child was pushed with the scope's
		// target noted on its deque (spawn), the deque its completer runs
		// from or whose marker a thief migrated, so a join has no target
		// left to pin.
		if wt.join {
			t.w.stat.suspensions.Add(1)
		}
		return wt
	}
	// A suspending task pins its target to the home deque it will resume
	// to, so deadline-aware selection keeps following the request across
	// suspensions (and across steals that moved it off its spawn deque).
	// The nil check covers harness-built handles without a scope.
	if s := c.scope; s != nil && s.target != 0 {
		home.noteTarget(s.target, s)
	}
	t.w.stat.suspensions.Add(1)
	return wt
}

// release drops one reference; the party dropping the last one returns
// the waiter to the pool.
func (wt *waiter) release() {
	rt := wt.t.rt
	if wt.refs.Add(-1) == 0 {
		wt.t = nil
		wt.home = nil
		wt.src = nil
		wt.ext = nil
		wt.extErr = nil
		rt.pools.waiters.Put(wt)
	}
}

// wake claims the wait and resumes the task: onto the resume inbox of
// the worker that owns its home deque or — for a join — of the worker it
// yielded to (the slow path of continueOn); in Blocking mode, straight
// back on the task's own resume channel, whose one slot is empty while the
// task holds its worker. abortErr non-nil marks a cancellation wake: the
// task will unwind with that error instead of continuing its operation.
// Returns false if another wakeup already claimed this wait. The caller
// must hold a reference; wake itself does not release one.
func (wt *waiter) wake(abortErr error) bool {
	if !wt.claim() {
		return false
	}
	t := wt.t
	// The claim is won: this goroutine is the unique resumer. Writes
	// below are published to the task by the resume handoff chain: the
	// inbox owner's mutex, then the deque item, then the coroutine switch
	// of the worker that runs the task — or, with no home, the task's
	// resume channel. The external payload is copied onto the task here
	// because the waiter may be recycled before the task reads it.
	t.wakeErr = abortErr
	if abortErr == nil {
		// Only a completion wake carries a payload. An abort wake must not
		// read these fields: a stale Complete (about to lose this claim)
		// may still be writing them, and the unwinding task never looks.
		t.extN, t.extErr = wt.extN, wt.extErr
	}
	if wt.home != nil || wt.join {
		t.rt.workers[wt.worker].addResumed(wt)
	} else {
		t.resume <- t.w
	}
	return true
}

// claim advances the task's epoch past this wait; exactly one of the
// wait's wakeups wins it.
func (wt *waiter) claim() bool {
	return wt.t.epoch.CompareAndSwap(wt.epoch, wt.epoch+1)
}

// continueOn is the completion of a join wait, run by the child's
// completer, which holds w's owner role: the light in-edge of Figure 3's
// join vertex. If it wins the claim and the task has already yielded
// (task.parked), the task's own node goes onto w's active deque, so the
// awaiter continues on the worker that finished its child, and continueOn
// reports the push. A task that has not yielded yet must not be pushed:
// another worker could switch into its coroutine while it is still
// running. It takes the slow path instead, the resume inbox of the worker
// it is yielding to, which drains it only after the yield. It consumes the
// caller's event reference.
func (wt *waiter) continueOn(w *worker) bool {
	pushed := false
	if wt.claim() {
		t := wt.t
		if t.parked.Load() {
			w.active.q.PushBottom(w.newTaskNode(t))
			pushed = true
		} else {
			w.rt.workers[wt.worker].addResumed(wt)
		}
	}
	wt.release()
	return pushed
}

// abortWait is the cancellation abort: it stops a pending Latency timer
// (reclaiming its pending-wake accounting), dequeues the waiter from its
// wake source if it is parked on one, interrupts an armed external
// operation, and wakes the task with err. It consumes the scope
// reference, so it must be called exactly once — by the canceling scope,
// or inline by armScope when registration finds the scope already
// canceled.
func (wt *waiter) abortWait(err error) {
	if wt.timed && wt.tm.Stop() {
		// The timer's reference stays held (see waiter).
		wt.t.rt.pendingWakes.Add(-1)
	}
	switch {
	case wt.ext != nil:
		// Interrupt the external operation, then wake the task directly:
		// the completer's own (now stale) Complete will lose the claim
		// and merely release its event reference.
		wt.ext.CancelExternal(ExternalHandle{wt: wt}, err)
		wt.wake(err)
	case wt.src != nil:
		wt.src.cancelWait(wt, err)
	default:
		wt.wake(err)
	}
	wt.release()
}

// deliver passes a normal wakeup through the configured fault injector:
// Drop loses it, Delay defers it, Dup delivers it twice. Aborts bypass
// deliver entirely so cancellation and watchdog recovery stay reliable
// even under 100% fault rates. deliver consumes the caller's event
// reference (transferring it into the delayed closure when the injector
// defers the wake). The re-deliveries arm fresh AfterFunc timers, not
// the embedded tm: when deliver runs from latencyFired, tm is mid-fire.
func (wt *waiter) deliver(p faultpoint.Point) bool {
	rt := wt.t.rt
	inj := rt.cfg.Faults
	if inj == nil {
		won := wt.wake(nil)
		wt.release()
		return won
	}
	switch act, d := inj.Decide(p); act {
	case faultpoint.Drop:
		// Lost wakeup: the task stays suspended until the watchdog or a
		// cancellation aborts it. The payload was never handed over.
		wt.release()
		return false
	case faultpoint.Delay:
		rt.pendingWakes.Add(1)
		rt.wheel.AfterFunc(d, deliverDelayed, wt)
		// The claim is decided later; report delivered so the completer
		// treats the payload as handed over (chaos-mode semantics).
		return true
	case faultpoint.Dup:
		wt.refs.Add(1) // the duplicate delivery's reference
		won := wt.wake(nil)
		rt.pendingWakes.Add(1)
		rt.wheel.AfterFunc(d, deliverDelayed, wt) // stale epoch: discarded by the claim CAS
		wt.release()
		return won
	default:
		won := wt.wake(nil)
		wt.release()
		return won
	}
}

// deliverDelayed is the wheel callback for fault-delayed (and
// fault-duplicated) wakeups; the waiter reference was transferred into
// the timer when it was armed.
func deliverDelayed(arg any) {
	wt := arg.(*waiter)
	wt.t.rt.pendingWakes.Add(-1)
	wt.wake(nil)
	wt.release()
}

// finishWait parks the task until the claiming wake resumes it — handing
// its worker back to the worker loop first unless it is a Blocking-mode
// wait — and then deregisters the wait from the scope, releases the
// task's references, and unwinds if the wake was an abort.
func (c *Ctx) finishWait(wt *waiter) {
	c.yield(wt.home != nil || wt.join)
	if c.scope.removeWait(wt) {
		// Deregistered before the scope fired: the scope's abort will
		// never run, so its reference is released here. If removeWait
		// found nothing, a concurrent (or past) cancel owns the abort
		// path and consumes that reference itself; the refcount keeps
		// the waiter alive — with its stale epoch — until it has.
		wt.release()
	}
	err := c.t.wakeErr
	c.t.wakeErr = nil
	wt.release() // the task's own reference
	if err != nil {
		panic(cancelPanic{err: err})
	}
}

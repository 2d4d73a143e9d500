package runtime

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"lhws/internal/timerwheel"
)

// Cancellation errors. Run returns them (possibly wrapped) when the
// whole execution is canceled; Future.Err carries them for a canceled
// subtree.
var (
	// ErrCanceled reports that a task's cancellation scope was canceled
	// explicitly via the cancel function of WithCancel/WithDeadline or
	// via Ctx.Cancel.
	ErrCanceled = errors.New("runtime: canceled")
	// ErrDeadline reports that a deadline installed with
	// Ctx.WithDeadline or Config.Deadline elapsed.
	ErrDeadline = errors.New("runtime: deadline exceeded")
	// ErrTargetMissed reports that an overload-shedding scheduler
	// (Config.ShedBlownTargets) canceled a subtree whose latency target
	// (WithTarget / WithDeadline) had already passed before the work could
	// be stolen — the subtree could no longer meet its target, so its
	// remaining work was shed instead of occupying workers.
	ErrTargetMissed = errors.New("runtime: latency target missed")
)

// cancelPanic is the unwinding vehicle for cooperative cancellation: a
// task whose scope is canceled panics with this value at its next
// scheduling point, and task.main converts it into the task's error
// instead of treating it as a crash. The type is unexported so user
// code cannot forge one; user recovers that swallow it are tolerated —
// the next scheduling point re-raises.
type cancelPanic struct{ err error }

// cancelScope is a node in the run's cancellation tree. Every task
// carries the scope it was spawned under; WithCancel/WithDeadline
// derive child scopes, so the scope tree follows the fork-join spawn
// tree and canceling a scope cancels exactly that subtree (paper §3's
// computation tree, pruned at a vertex).
//
// Canceling a scope (a) marks it and all descendant scopes, making
// every checkpoint in their tasks unwind; and (b) fires the abort
// callback of every wait registered on them, waking tasks suspended on
// Latency timers, channels, and futures so cancellation never waits on
// a wakeup that may never come.
//
// Lock order: scope.mu is taken before any channel, future, or deque
// mutex (aborts run with scope.mu released), and never the other way
// around. No two scope locks are held at once.
type cancelScope struct {
	rt     *runtimeState
	parent *cancelScope

	// target is the scope's soft latency target as an absolute wall-clock
	// instant (UnixNano; 0 = none), inherited min-wise down the scope tree
	// from WithTarget / WithDeadline. It is written only during scope
	// construction — before the scope is shared — and read without
	// synchronization afterwards, so the spawn hot path pays one plain
	// field load. Unlike a deadline, a target cancels nothing by itself:
	// it informs deque selection, steal gating, and the TasksLate counter.
	target int64

	// canceled is the lock-free fast path for checkpoints: set to true
	// only after err is published under mu.
	canceled atomic.Bool

	mu       sync.Mutex
	err      error
	children map[*cancelScope]struct{}
	// waits heads the intrusive list of registered waits (linked through
	// waiter.prev/next). It is also the watchdog's only registry of open
	// suspensions (see stallError).
	waits *waiter
	timer *timerwheel.Timer
	// deadlineWake marks that the scope's deadline timer is counted in
	// rt.pendingWakes (derived scopes only; see setDeadline). Guarded by mu;
	// cleared by whichever of cancel / fireDeadline retires the timer.
	deadlineWake bool
}

// newCancelScope creates a scope under parent (nil for the root). A
// scope derived from an already-canceled parent is born canceled.
func newCancelScope(rt *runtimeState, parent *cancelScope) *cancelScope {
	s := &cancelScope{rt: rt, parent: parent}
	if parent == nil {
		return s
	}
	// Targets flow down the spawn tree: the parent's target is immutable
	// once the parent scope is shared, so a plain read is safe here.
	s.target = parent.target
	parent.mu.Lock()
	if err := parent.err; err != nil {
		parent.mu.Unlock()
		s.err = err
		s.canceled.Store(true)
		return s
	}
	if parent.children == nil {
		parent.children = make(map[*cancelScope]struct{})
	}
	parent.children[s] = struct{}{}
	parent.mu.Unlock()
	return s
}

// Err returns the cancellation cause, or nil while the scope is live.
func (s *cancelScope) Err() error {
	if !s.canceled.Load() {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// cancel marks the scope canceled with cause err, aborts its registered
// waits, and recursively cancels child scopes. Idempotent: only the
// first cause sticks; the return value reports whether this call was the
// one that set it (steal gating counts each shed subtree exactly once).
func (s *cancelScope) cancel(err error) bool {
	s.mu.Lock()
	if s.err != nil {
		s.mu.Unlock()
		return false
	}
	s.err = err
	s.canceled.Store(true)
	if s.timer != nil {
		s.timer.Stop()
		s.timer = nil
		if s.deadlineWake {
			// The timer will never fire; reclaim its pending-wake credit.
			s.deadlineWake = false
			s.rt.pendingWakes.Add(-1)
		}
	}
	// Detach the wait list. Clearing each waiter's scope here, under mu,
	// is what makes a later removeWait report false: the abort below now
	// owns the wait.
	waits := s.waits
	s.waits = nil
	for wt := waits; wt != nil; wt = wt.next {
		wt.scope = nil
	}
	kids := make([]*cancelScope, 0, len(s.children))
	for k := range s.children {
		kids = append(kids, k)
	}
	s.children = nil
	s.mu.Unlock()
	// Canceling the root scope fails the whole run: record the cause so
	// Run returns it even if every task then unwinds cleanly.
	if s.rt != nil && s == s.rt.root {
		s.rt.noteFatal(err)
	}
	// Read next before each abort: once aborted, a waiter may be recycled
	// and registered on another list.
	for wt := waits; wt != nil; {
		next := wt.next
		wt.prev, wt.next = nil, nil
		wt.abortWait(err)
		wt = next
	}
	for _, k := range kids {
		k.cancel(err)
	}
	if s.rt != nil && s == s.rt.root {
		// Every abort above has published its task to a resume inbox; a
		// parked owner whose wake was lost must still come and run it.
		s.rt.wakeAll()
	}
	return true
}

// setDeadline arms a wheel timer canceling the scope with ErrDeadline.
// Deadline scopes ride the run's shared timer wheel, so WithDeadline in
// a hot loop costs a slot-list insert, not a runtime timer heap entry;
// and because Run shuts the wheel down after the pool drains, a root
// deadline cannot fire after Run returns — the separate stop-on-exit
// special case the per-scope time.Timer needed is gone.
func (s *cancelScope) setDeadline(d time.Duration) {
	s.mu.Lock()
	if s.err == nil && s.timer == nil {
		// A derived scope's deadline is a guaranteed future wakeup for any
		// task suspended under it, so it must count as a pending wake —
		// otherwise the suspension watchdog can declare a stall (and
		// double-report a *StallError) for a request that was about to be
		// canceled for deadline reasons. The root deadline (Config.Deadline)
		// deliberately does NOT count: it is the backstop above the
		// watchdog, and counting it would blind stall detection for the
		// whole run.
		if s.rt != nil && s != s.rt.root {
			s.deadlineWake = true
			s.rt.pendingWakes.Add(1)
		}
		s.timer = s.rt.wheel.AfterFunc(d, fireDeadline, s)
	}
	s.mu.Unlock()
}

// fireDeadline is the wheel callback for scope deadlines. It runs on the
// wheel goroutine; cancel takes scope locks only, which are above the
// wheel's leaf mutex in the lock order, so a deadline cascading into
// timer Stops cannot deadlock.
func fireDeadline(arg any) {
	s := arg.(*cancelScope)
	s.mu.Lock()
	if s.deadlineWake {
		s.deadlineWake = false
		s.rt.pendingWakes.Add(-1)
	}
	s.mu.Unlock()
	s.cancel(ErrDeadline)
}

// setTarget installs tgt (absolute UnixNano) as the scope's latency
// target, keeping an earlier inherited target if one exists. Must be
// called during construction, before the scope's Ctx is shared.
func (s *cancelScope) setTarget(tgt int64) {
	if s.target == 0 || tgt < s.target {
		s.target = tgt
	}
}

// detach removes the scope from its parent so a finished subtree's
// scope is not retained (and not re-canceled) by ancestors.
func (s *cancelScope) detach() {
	p := s.parent
	if p == nil {
		return
	}
	p.mu.Lock()
	delete(p.children, s)
	p.mu.Unlock()
}

// addWait registers wt, whose abortWait a cancel will run. If the scope
// is already canceled it registers nothing and returns the cause; the
// caller then runs the abort itself, which closes the race between
// waiting and a concurrent cancel.
func (s *cancelScope) addWait(wt *waiter) error {
	s.mu.Lock()
	if s.err != nil {
		err := s.err
		s.mu.Unlock()
		return err
	}
	wt.scope = s
	wt.prev = nil
	wt.next = s.waits
	if wt.next != nil {
		wt.next.prev = wt
	}
	s.waits = wt
	s.mu.Unlock()
	return nil
}

// removeWait deregisters a wait after it completed normally. It reports
// whether wt was still registered — i.e. whether its abort is now
// guaranteed never to run, which tells the refcounting caller it owns the
// reference the abort would otherwise have consumed.
func (s *cancelScope) removeWait(wt *waiter) bool {
	s.mu.Lock()
	present := wt.scope == s
	if present {
		if wt.prev != nil {
			wt.prev.next = wt.next
		} else {
			s.waits = wt.next
		}
		if wt.next != nil {
			wt.next.prev = wt.prev
		}
		wt.prev, wt.next, wt.scope = nil, nil, nil
	}
	s.mu.Unlock()
	return present
}

// WithCancel derives a context whose tasks — everything spawned or
// awaited through it — can be canceled as a group. The returned cancel
// function cancels the subtree with ErrCanceled and releases the
// scope; call it (typically deferred) even if the subtree completes
// normally.
func (c *Ctx) WithCancel() (*Ctx, func()) {
	child := newCancelScope(c.t.rt, c.scope)
	cc := &Ctx{t: c.t, scope: child}
	return cc, func() {
		child.cancel(ErrCanceled)
		child.detach()
	}
}

// WithDeadline derives a context canceled automatically with
// ErrDeadline after d. The returned cancel function releases the scope
// early (with ErrCanceled if it is the first cause); always call it.
//
// A deadline is also a latency target (see WithTarget): the subtree's
// work is preferred by deadline-aware deque selection while it can still
// finish by the deadline, and shed by steal gating once it cannot.
func (c *Ctx) WithDeadline(d time.Duration) (*Ctx, func()) {
	cc, cancel := c.WithCancel()
	cc.scope.setTarget(time.Now().Add(d).UnixNano())
	cc.scope.setDeadline(d)
	return cc, cancel
}

// WithTarget derives a context whose subtree carries a soft latency
// target d from now — the request's deadline in the paper's interactive
// server scenario (§5). Unlike WithDeadline, nothing fires when the
// target passes: the target steers scheduling. Workers prefer ready
// deques holding the earliest-target work, thieves prefer victims whose
// work can still meet its target, and — with Config.ShedBlownTargets —
// steal attempts landing on a subtree whose target already passed cancel
// it with ErrTargetMissed instead of stealing from it. Targets inherit
// min-wise: a child scope never relaxes its parent's target. The
// returned cancel function releases the scope; always call it.
func (c *Ctx) WithTarget(d time.Duration) (*Ctx, func()) {
	cc, cancel := c.WithCancel()
	cc.scope.setTarget(time.Now().Add(d).UnixNano())
	return cc, cancel
}

// Target returns the context's absolute latency target as UnixNano
// wall-clock time, or 0 if none was installed (WithTarget/WithDeadline).
func (c *Ctx) Target() int64 { return c.scope.target }

// Cancel cancels the context's own scope with ErrCanceled. On a root
// context (the one Run passed to the root task) this cancels the whole
// run, and Run returns ErrCanceled.
func (c *Ctx) Cancel() { c.scope.cancel(ErrCanceled) }

// Err returns the context's cancellation cause (ErrCanceled,
// ErrDeadline, a *StallError, or the first task panic), or nil while
// the scope is live. CPU-bound tasks should poll Err at loop
// boundaries: cancellation is cooperative and only unwinds a task at
// its scheduling points.
func (c *Ctx) Err() error { return c.scope.Err() }

// checkpoint unwinds the task if the scope it was spawned under has been
// canceled. Called at every scheduling point (Spawn, Latency, Await,
// channel operations). It deliberately tests the task's own scope, not
// the handle's: a derived handle (WithCancel/WithDeadline) whose scope
// was canceled does not unwind the task here — children spawned through
// it are born canceled and unwind themselves, and a suspension through
// it is aborted by the scope's wait registration. That lets a parent
// spawn into a canceled subtree and still observe the outcome via
// AwaitErr rather than being torn down itself.
func (c *Ctx) checkpoint() {
	if s := c.t.scope; s.canceled.Load() {
		panic(cancelPanic{err: s.Err()})
	}
}

package runtime

import (
	"fmt"
	"iter"
	"sync/atomic"
	"time"

	"lhws/internal/faultpoint"
)

// reportKind is what a task's coroutine yields to its current worker
// when control returns to the worker loop.
type reportKind int8

const (
	reportDone reportKind = iota
	reportSuspended
)

// task is a user-level thread. Each task shell owns one coroutine (an
// iter.Pull pair over main), and tasks run cooperatively: a task executes
// only between a worker switching into its coroutine (switchIn) and the
// coroutine yielding a report back, so at most one of {worker loop, its
// current task} is active per worker at any instant. That mutual
// exclusion is what makes owner-side deque operations from task code safe.
// A switch hands the thread straight to the task (runtime.coroswitch): no
// run queue, no wakep, no second goroutine made runnable.
//
// Task shells are pooled: when a recyclable task's coroutine yields done,
// its worker returns the shell — struct, resume channel, and coroutine —
// to the worker-local free list (overflowing into the runtime's
// sync.Pool), and Ctx.Spawn reuses it for the next child instead of
// paying newTask and a new coroutine. The coroutine survives across lives
// by looping in main; Run stops it after the run drains (see
// worker.shells).
//
// A life does not have to be switched into at all: a child that is
// still fresh at the bottom of its awaiter's deque is run as a function
// call on the awaiter's goroutine (Ctx.runInline), and its shell only
// lends the call its body, scope, future and Ctx storage.
//
// epoch is deliberately NOT reset between lives: the suspension-claim CAS
// in waiter.wake relies on it increasing monotonically for the lifetime of
// the shell, so a stale wakeup aimed at a previous life can never claim a
// suspension of the current one.
type task struct {
	rt *runtimeState
	r  runner // the life's body
	// resume carries a Blocking-mode wake's hand-back (see waiter.wake):
	// the task waits on it inside its coroutine while its worker stays
	// switched in.
	resume chan *worker
	// next and stop are the coroutine's iter.Pull pair, created on the
	// shell's first switch-in; yieldTo is main's yield, through which the
	// task hands its worker back. next and stop are owner-role access
	// only, yieldTo task-goroutine access only.
	next    func() (reportKind, bool)
	stop    func()
	yieldTo func(reportKind) bool
	// fresh marks a life that has never been switched into or run inline:
	// set by spawn, cleared by the first runTask or runInline. It travels
	// with the deque item, so whoever pops or steals the item reads it
	// exclusively. next cannot serve — it stays set across pooled lives.
	fresh   bool
	recycle bool // shell returns to the pool on completion
	// spawning is non-zero while the task is inside spawn, which holds
	// its worker's active deque across the push; beginWait panics if a
	// wait arms then, since the task could resume on another worker and
	// push onto a deque it no longer owns. Task-goroutine access only.
	// It fills the padding after the bools, so it adds nothing to the
	// shell's size.
	spawning int32
	w        *worker // current worker; task-goroutine access only
	// scope is the cancellation scope of the code running on the task's
	// goroutine, the one checkpoint tests: the scope the task was spawned
	// under, replaced by an inlined child's for the length of its call
	// (see runInline). Task-goroutine access only once the life has begun.
	scope *cancelScope
	fut   *Future // completion future (nil for the root task)
	ctx   Ctx     // the life's Ctx, re-initialized each life
	// node is the deque item the task is pushed in as a singleton (see
	// pforNode); it lives and is recycled with the shell.
	node pforNode

	// epoch is the suspension epoch: odd while a suspension is open,
	// advanced by beginWait and by the (unique) claiming wakeup. See
	// waiter. Monotonic across pooled lives — never reset.
	epoch atomic.Uint64
	// parked is set by the worker once the coroutine has yielded a
	// suspension and cleared before the next switch-in: a join's
	// completer may push the task onto its own deque only while it is
	// set (waiter.continueOn).
	parked atomic.Bool
	// wakeErr is set by the claiming waker before re-injection when the
	// wake is a cancellation abort; the resume handoff publishes it.
	wakeErr error
	// extN/extErr carry an external completion's payload from the
	// claiming wake to AwaitExternalOp's return (see waiter).
	extN   int
	extErr error
	// err is the task's outcome, written by its own goroutine before the
	// final yield: nil, a cancellation cause, or a wrapped panic.
	err error
}

// runner is a task life's body. Spawn's runner is the user's func itself
// (funcRunner); SpawnValue, For and MapReduce spawn a record that holds
// the child's Future, its arguments and its result, and whose run method
// is the body — so each of those spawns is one allocation.
type runner interface{ run(*Ctx) }

// funcRunner is Spawn's runner. A func value is one pointer word, so
// converting it to a runner allocates nothing.
type funcRunner func(*Ctx)

func (f funcRunner) run(c *Ctx) { f(c) }

func newTask(rt *runtimeState, r runner) *task {
	return &task{
		rt:     rt,
		r:      r,
		resume: make(chan *worker, 1),
	}
}

// main is the coroutine body: each iteration is one task life — run the
// current body, then yield done — after which the shell may be re-armed
// with a new runner by spawn and switched into again. After the
// yield the coroutine must not touch any task field until it is resumed:
// the worker may already be recycling the shell into a new life. It
// returns when Run stops the coroutine.
func (t *task) main(yield func(reportKind) bool) {
	t.yieldTo = yield
	for {
		t.ctx = Ctx{t: t, scope: t.scope}
		t.err = t.body(&t.ctx)
		if !yield(reportDone) {
			return
		}
	}
}

// switchIn runs the task on its coroutine until the coroutine yields, and
// returns what it yielded. The first switch creates the coroutine.
// Owner-role access only; t.w must already name the worker.
func (t *task) switchIn() reportKind {
	if t.next == nil {
		t.next, t.stop = iter.Pull(t.main)
		t.w.shells = append(t.w.shells, t)
	}
	r, _ := t.next()
	return r
}

// body runs the life's runner under c and settles the outcome. It is the
// unwind boundary of a life whether the life runs on its own coroutine
// (main) or as a function call inside its awaiter (runInline): a panic
// raised in the user function stops here and becomes the returned error.
func (t *task) body(c *Ctx) (err error) {
	defer func() { err = c.t.w.settle(recover(), c.scope, t.fut) }()
	if inj := t.rt.cfg.Faults; inj != nil {
		inj.Inject(faultpoint.TaskBody)
	}
	t.r.run(c)
	return nil
}

// settle is the completion protocol of one task life, given what its body
// recovered (nil for a normal return). A panic is recorded as the run's
// fatal error (surfaced from Run) and unified with cancellation: it
// cancels the root scope so every other task unwinds and the run drains
// instead of hanging or leaking goroutines. A cancelPanic — the
// cooperative-cancellation unwind — becomes the life's error without being
// fatal to the run. Either way the future completes (with the error) so
// joins unwind, and the life counts as done on w's shard (see finished).
// w is the worker whose owner role the life's code holds.
func (w *worker) settle(r any, scope *cancelScope, fut *Future) error {
	rt := w.rt
	var err error
	if r != nil {
		if cp, ok := r.(cancelPanic); ok {
			err = cp.err
			rt.stats.TasksCanceled.Add(1)
		} else {
			err = fmt.Errorf("%w: %v", ErrTaskPanic, r)
			rt.stats.TasksPanicked.Add(1)
			rt.recordFatal(err)
		}
	}
	// Goodput accounting: a life that finished cleanly but after its
	// scope's latency target is a late completion — throughput the server
	// scenario's client no longer wants. One plain field read when no
	// target is set.
	if tgt := scope.target; tgt != 0 && err == nil && time.Now().UnixNano() > tgt {
		rt.stats.TasksLate.Add(1)
	}
	if fut != nil {
		fut.complete(err, w)
	}
	w.stat.tasksDone.Add(1)
	return err
}

// runInline runs child as a plain function call on the calling task's
// goroutine: a join on work nobody stole is a light edge, and costs a
// deque pop instead of a suspension and two switches. The caller has just
// popped child from its own active deque and child is fresh, so nothing
// else can reach it and its shell coroutine (if it has one) stays parked.
//
// The child's code sees a Ctx of the host task under the child's scope.
// If it reaches a heavy edge, the suspension is the host's — which is
// blocked on this child anyway — and the host may come back on another
// worker; everything below reads c.t.w afresh. checkpoint must test the
// child's scope while the child runs, so t.scope is swapped for the call.
// The unwind boundary is body: a cancelPanic or user panic inside the
// child becomes the returned error (the child future's error), and the
// host unwinds only through its own next checkpoint.
//
// The shell is recycled afterwards, never having been switched into:
// TasksRun does not count the life, InlineJoins does.
func (c *Ctx) runInline(child *task) error {
	t := c.t
	child.fresh = false
	t.w.stat.inlineJoins.Add(1)
	outer := t.scope
	t.scope = child.scope
	child.ctx = Ctx{t: t, scope: child.scope}
	err := child.body(&child.ctx)
	t.scope = outer
	t.w.releaseTask(child)
	return err
}

// Ctx is a task's handle to the runtime: the capability to spawn, await,
// perform latency operations, and manage cancellation. A Ctx is only valid
// within the task it was passed to; nested tasks receive their own Ctx.
// Derived contexts (WithCancel, WithDeadline) share the task and may be
// used interchangeably with their parent within it.
type Ctx struct {
	t     *task
	scope *cancelScope
}

// Worker returns the index of the worker currently running the task
// (useful for instrumentation; it may change across suspension points).
func (c *Ctx) Worker() int { return c.t.w.id }

// Spawn creates a child task executing f and makes it available for
// parallel execution by pushing it onto the bottom of the current active
// deque. The parent continues running (spawn is non-preemptive: the
// continuation keeps the worker, per §3). The returned Future completes
// when the child finishes; if the child panics or is canceled, the
// Future's Err records why. The child inherits c's cancellation scope.
//
// The child's shell comes from the worker's task free list, so a
// steady-state spawn allocates the returned Future and nothing else; f
// itself is whatever the caller built (nothing for a package-level
// function, one closure for a literal that captures variables).
//
// The child runs on a coroutine, so it must not suspend or return while
// it holds runtime.LockOSThread: Go aborts the process with a fatal error
// when a coroutine switches with a thread lock it did not start with.
func (c *Ctx) Spawn(f func(*Ctx)) *Future {
	fut := &Future{}
	c.spawn(funcRunner(f), fut)
	return fut
}

// spawn is the one spawn path: it arms a shell with r as its body and fut
// as its completion future, and pushes the shell onto the bottom of the
// active deque. fut is often a field of r's own record (Value, forHalf,
// mapHalf), which is what makes those spawns a single allocation. The
// task must not suspend in here (see task.spawning).
func (c *Ctx) spawn(r runner, fut *Future) {
	c.checkpoint()
	c.t.spawning++
	child := c.t.w.acquireTask(r)
	child.scope = c.scope
	child.fut = fut
	child.fresh = true
	c.t.w.stat.tasksSpawned.Add(1)
	// The running task holds the owner role of its worker, so pushing onto
	// the active deque is owner-side and safe.
	if tgt := c.scope.target; tgt != 0 {
		c.t.w.active.noteTarget(tgt, c.scope)
	}
	nd := c.t.w.newTaskNode(child)
	fut.nd = nd
	c.t.w.active.q.PushBottom(nd)
	c.t.spawning--
	c.t.rt.published()
}

// Latency models a latency-incurring operation (a remote call, a disk
// read, a user prompt) taking d of wall-clock time but no CPU. A timer on
// the run's wheel ends the wait when d elapses.
//
// In LatencyHiding mode the task suspends: the timer returns it to its
// deque and the worker meanwhile schedules other work. In Blocking mode
// the worker is held for the full duration — the baseline behaviour the
// paper's evaluation compares against.
//
// If the task's scope is canceled, Latency unwinds the task — before
// waiting, or early out of the wait (the timer is stopped).
func (c *Ctx) Latency(d time.Duration) {
	c.checkpoint()
	t := c.t
	wt := c.beginWait("latency", KindTimer, c.waitHome(), nil)
	t.rt.pendingWakes.Add(1)
	wt.refs.Add(1) // timer reference, consumed by deliver
	wt.timed = true
	t.rt.wheel.AfterFuncInto(&wt.tm, d, latencyFired, wt)
	c.armScope(wt)
	c.finishWait(wt)
}

// latencyFired is the wheel callback for Latency: ten thousand sleeping
// tasks cost one timer goroutine, and expirations sharing a tick land in
// the same drainResumed batch. A package-level function (with the waiter
// as the argument) and the timer embedded in the waiter keep the arm
// allocation-free.
func latencyFired(arg any) {
	wt := arg.(*waiter)
	wt.t.rt.pendingWakes.Add(-1)
	wt.deliver(faultpoint.ResumeInject)
}

// armScope registers the open suspension with the task's cancellation
// scope so a cancel aborts the wait. It owns the scope reference taken in
// beginWait: if the scope is already canceled the abort path (which
// consumes the reference) runs inline.
func (c *Ctx) armScope(wt *waiter) {
	if err := c.scope.addWait(wt); err != nil {
		wt.abortWait(err)
	}
}

// injectFault runs the task-side fault point p (it may sleep or panic);
// a single nil check when chaos is off. Task-side only — never called
// from the worker loop.
func (c *Ctx) injectFault(p faultpoint.Point) {
	if inj := c.t.rt.cfg.Faults; inj != nil {
		inj.Inject(p)
	}
}

// yield parks the task until a worker resumes it; the Ctx is rebound to
// the resuming worker. With report set it yields its coroutine, handing
// control back to the worker loop with a suspension report; the worker
// that later switches it back in has set t.w. Without (a Blocking-mode
// wait) the worker stays switched in, waiting in runTask, and the
// claiming wake hands the task that same worker on t.resume.
func (c *Ctx) yield(report bool) {
	if report {
		c.t.yieldTo(reportSuspended)
		return
	}
	c.t.w = <-c.t.resume
}

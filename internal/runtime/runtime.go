// Package runtime is a real (wall-clock) latency-hiding work-stealing task
// runtime: the Go counterpart of the paper's Standard ML prototype (§6).
//
// The simulated schedulers in package sched execute abstract weighted dags
// under the unit-cost round model used by the analysis; this package runs
// actual Go code. User-level tasks are multiplexed over a fixed pool of
// worker goroutines. As in §6 of the paper, scheduling happens at task
// granularity: the scheduler runs when a task ends, spawns, awaits another
// task, or performs a latency-incurring operation.
//
// Two modes implement the paper's comparison:
//
//   - LatencyHiding: the LHWS algorithm. Each worker owns a set of deques,
//     one active at a time. A task that suspends on a heavy edge (Latency,
//     a channel, an external completion) is paired with its worker's
//     active deque; when it resumes, a callback puts it on that worker's
//     resume inbox, and at the next scheduling point the owner injects the
//     inbox back, one item per home deque. Workers
//     with an empty active deque first switch to another owned ready
//     deque, then steal — per §6, a steal picks a random victim worker,
//     then one of its active and ready deques, and takes up to half of
//     that deque's items, oldest first (DefaultStealBatch). A join is a
//     light edge: an Await on a child nobody stole — still fresh at the
//     bottom of the awaiter's deque — pops the child and runs it as a
//     function call, and any other Await on an incomplete Future yields
//     without pinning a deque, to be pushed by the child's completer onto
//     the completer's own active deque (or, if the awaiter has not yielded
//     yet, onto its own worker's inbox).
//
//   - Blocking: standard work stealing. Every wait — Latency, Await, a
//     channel receive, an external completion — holds the worker for its
//     full duration. It waits on the same claimable waiter as a
//     suspension, but has no home deque: the task keeps its worker, and
//     the wake hands it straight back. Await and Recv first help by
//     running queued tasks from the worker's own deque as function calls.
//
// Tasks are coroutines (iter.Pull), scheduled cooperatively: a worker
// switches into a task's coroutine to run it, the task runs only until it
// yields back, and control passes back to the worker loop at every
// scheduling point that is not such a call. A switch hands the thread
// straight to the task, without a trip through Go's run queue. This is
// the standard way to build a user-level scheduler above the Go runtime,
// which does not expose its own scheduler for replacement. One rule
// follows from it: a task must not suspend or return while it holds
// runtime.LockOSThread. Go requires a coroutine's thread-lock state to
// match its state at creation, and a switch that breaks this is a fatal
// error, not a recoverable panic.
//
// On top of the scheduler sits a resilience layer:
//
//   - Cancellation and deadlines: Ctx.WithCancel / Ctx.WithDeadline derive
//     cancelable subtrees; Config.Deadline bounds the whole run.
//     Cancellation unwinds tasks cooperatively at scheduling points and
//     aborts suspended waits so it never depends on a wakeup arriving.
//
//   - Unified error path: task panics, cancellations, deadlines, and
//     watchdog stalls all flow through one first-error-wins channel; Run
//     returns the first fatal error (ErrTaskPanic, ErrCanceled,
//     ErrDeadline, or a *StallError) and records the rest in Stats.
//
//   - Suspension watchdog: with Config.StallTimeout set, a monitor
//     goroutine detects lost-wakeup / deadlock conditions — live tasks, no
//     running work, no pending wakeups — and converts the would-be hang
//     into a structured *StallError diagnostic (see watchdog.go).
//
//   - Fault injection: Config.Faults wires an internal/faultpoint.Injector
//     into the scheduler hot paths (steals, suspensions, resume injection,
//     channel wakeups, task bodies) for chaos testing; nil costs one
//     pointer check per fault point.
package runtime

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lhws/internal/faultpoint"
	"lhws/internal/rng"
	"lhws/internal/timerwheel"
)

// DefaultStealBatch caps how many items one successful steal transfers
// (a steal never takes more than half the victim deque regardless, nor
// more than deque.MaxBatch). The batch also decides where resumed tasks
// wait: a thief that takes a request tree's root together with the items
// below it keeps the deque its requests suspend from active, so their
// resumptions run at its next pop instead of waiting in a ready deque
// until the thief's next deque drains. One-item steals doubled to
// tripled workload.Mixed's median response (EXPERIMENTS.md "Steal
// economics").
const DefaultStealBatch = 16

// Mode selects the scheduling algorithm.
type Mode int

const (
	// LatencyHiding runs the LHWS algorithm (multi-deque, suspending).
	LatencyHiding Mode = iota
	// Blocking runs standard work stealing with blocking latency ops.
	Blocking
)

func (m Mode) String() string {
	switch m {
	case LatencyHiding:
		return "latency-hiding"
	case Blocking:
		return "blocking"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config configures a runtime execution.
type Config struct {
	// Workers is the number of worker goroutines (P). Must be ≥ 1.
	Workers int
	// Mode selects latency-hiding or blocking scheduling.
	Mode Mode
	// Seed drives steal-victim selection. Unlike the simulator, wall-clock
	// executions are not bit-reproducible, but seeding keeps victim
	// sequences stable.
	Seed uint64
	// Deadline, when positive, bounds the whole run: if it elapses the
	// root scope is canceled, every task unwinds, and Run returns
	// ErrDeadline.
	Deadline time.Duration
	// StallTimeout, when positive, arms the suspension watchdog: if no
	// task makes progress for this long while live tasks remain and no
	// wakeup is pending, the run is canceled and Run returns a
	// *StallError naming the stuck suspensions. Zero disables the
	// watchdog. The watchdog observes latency-hiding suspensions;
	// Blocking-mode waits hold their worker inside a task and are
	// deliberately out of scope.
	StallTimeout time.Duration
	// Faults, when non-nil, injects scheduler faults for chaos testing;
	// see lhws/internal/faultpoint. Runs with dropped wakeups should
	// also set StallTimeout (or Deadline) so lost wakeups surface as
	// typed errors instead of hangs.
	Faults *faultpoint.Injector
	// ShedBlownTargets activates overload shedding in the scheduler:
	// a steal attempt that lands on a deque whose latency target
	// (WithTarget/WithDeadline) has already passed cancels that subtree
	// with ErrTargetMissed instead of stealing from it, returning its
	// workers to work that can still meet its target. Off by default —
	// without it targets only steer deque selection and never cancel.
	ShedBlownTargets bool
}

// Stats reports counters from one execution. All counts are totals across
// workers.
type Stats struct {
	TasksRun           int64         // switches into a task's coroutine (resumptions included)
	InlineJoins        int64         // children run as a function call by the task that joined them, never switched into
	TasksSpawned       int64         // tasks created
	TasksCanceled      int64         // tasks unwound by cancellation, deadline, or stall
	TasksPanicked      int64         // tasks that panicked
	Suspensions        int64         // tasks yielded to wait: heavy edges (latency, channels, external) and join waits, which pin no deque
	Switches           int64         // deque switches
	StealAttempts      int64         // steal attempts
	Steals             int64         // successful steals
	BatchItems         int64         // items transferred by successful steals (≥ Steals)
	ResumeBatches      int64         // multi-task pfor-tree injections by drainResumed
	ResumeBatchTasks   int64         // tasks re-injected inside those batches
	Parks              int64         // times a worker with nothing runnable, resumable or stealable waited to be woken
	WorkerWakes        int64         // wake tokens sent to parked workers
	MaxDequesPerWorker int32         // high-water mark of live deques on one worker
	TasksLate          int64         // tasks that completed after their scope's latency target
	TargetCancels      int64         // subtrees shed by steal gating (ShedBlownTargets)
	Stalled            bool          // the suspension watchdog fired
	SuppressedErrors   []string      // fatal errors after the first (first-error-wins)
	Wall               time.Duration // wall-clock duration of Run
}

// ErrConfig reports an invalid Config.
var ErrConfig = errors.New("runtime: invalid config")

// ErrTaskPanic wraps a panic raised inside a task; Run returns it with the
// panic value formatted into the message.
var ErrTaskPanic = errors.New("runtime: task panicked")

// maxSuppressedErrors bounds the Stats.SuppressedErrors record.
const maxSuppressedErrors = 16

// Run executes root (and everything it spawns) to completion on a fresh
// worker pool and returns execution statistics.
//
// Run fails with a typed error when the execution does: ErrTaskPanic for
// the first task panic (the panic value formatted in), ErrCanceled /
// ErrDeadline when the root scope is canceled or Config.Deadline elapses,
// and a *StallError when the suspension watchdog detects a lost wakeup or
// deadlock. Whatever the cause, the error path is the same: the root
// scope is canceled, suspended tasks are aborted and unwound, and Run
// returns only after every task has finished — no worker or task
// goroutines are leaked. Later fatal errors are recorded in
// Stats.SuppressedErrors. Stats are returned even when err is non-nil.
func Run(cfg Config, root func(*Ctx)) (*Stats, error) {
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("%w: Workers must be >= 1, got %d", ErrConfig, cfg.Workers)
	}
	rt := &runtimeState{cfg: cfg}
	rt.wheel = timerwheel.New(0)
	rt.root = newCancelScope(rt, nil)
	seeds := rng.New(cfg.Seed)
	rt.shards = make([]statShard, cfg.Workers)
	rt.workers = make([]*worker, cfg.Workers)
	for i := range rt.workers {
		rt.workers[i] = newWorker(rt, i, seeds.Split())
	}

	// The root task is never recycled (recycle=false from newTask): Run
	// reads rootTask.err after the pool drains.
	rootTask := newTask(rt, funcRunner(root))
	rootTask.scope = rt.root
	rt.shards[0].tasksSpawned.Add(1)
	w0 := rt.workers[0]
	w0.assigned = rootTask

	if cfg.Deadline > 0 {
		rt.root.setDeadline(cfg.Deadline)
	}
	watchStop := make(chan struct{})
	if cfg.StallTimeout > 0 {
		go rt.watchdog(watchStop)
	}

	start := time.Now()
	var wg sync.WaitGroup
	for _, w := range rt.workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			w.loop()
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)
	// The run has drained: stop every task shell's coroutine, pooled or
	// dropped from the pool alike, quiesce the timer wheel (after Shutdown
	// returns no timer callback — including the root deadline — can fire),
	// and close run-scoped auxiliaries (the I/O dispatcher and its
	// waiters, if one was created).
	for _, w := range rt.workers {
		for i, t := range w.shells {
			t.stop()
			w.shells[i] = nil
		}
	}
	close(watchStop)
	rt.wheel.Shutdown()
	rt.closeAux()

	rt.errMu.Lock()
	err := rt.firstErr
	suppressed := append([]string(nil), rt.suppressed...)
	rt.errMu.Unlock()
	if err == nil {
		// No run-wide fatal error: surface the root task's own outcome
		// (e.g. the root unwound under a derived deadline).
		err = rootTask.err
	}

	st := &Stats{
		TasksCanceled:      rt.stats.TasksCanceled.Load(),
		TasksPanicked:      rt.stats.TasksPanicked.Load(),
		TasksLate:          rt.stats.TasksLate.Load(),
		TargetCancels:      rt.stats.TargetCancels.Load(),
		MaxDequesPerWorker: rt.stats.MaxDeques.Load(),
		Stalled:            rt.stalled.Load(),
		SuppressedErrors:   suppressed,
		Wall:               wall,
	}
	for i := range rt.shards {
		s := &rt.shards[i]
		st.TasksRun += s.tasksRun.Load()
		st.InlineJoins += s.inlineJoins.Load()
		st.TasksSpawned += s.tasksSpawned.Load()
		st.Suspensions += s.suspensions.Load()
		st.Switches += s.switches.Load()
		st.StealAttempts += s.stealAttempts.Load()
		st.Steals += s.steals.Load()
		st.BatchItems += s.batchItems.Load()
		st.ResumeBatches += s.resumeBatches.Load()
		st.ResumeBatchTasks += s.resumeBatchTasks.Load()
		st.Parks += s.parks.Load()
		st.WorkerWakes += s.wakes.Load()
	}
	return st, err
}

// runtimeState is the shared state of one Run invocation.
type runtimeState struct {
	cfg     Config
	workers []*worker
	root    *cancelScope
	// pendingWakes counts wakeups that are scheduled but not yet
	// delivered (armed Latency timers, derived-scope deadline timers,
	// fault-delayed re-injections): a run with pending wakes is waiting,
	// not stalled.
	pendingWakes atomic.Int64
	// activeTargets counts deques whose targetNs is currently nonzero
	// (see rdeque.noteTarget). The steal path reads it to skip the
	// time.Now() call and EDF victim scan whenever no latency target
	// exists anywhere in the run — the common case for target-free
	// workloads.
	activeTargets atomic.Int64
	stalled       atomic.Bool
	// nidle counts workers that have announced a park (worker.parked) and
	// not been woken or withdrawn; nsearching counts workers looking for
	// work — spinning through steal attempts, or woken to. Both belong to
	// the park/wake handshake (see worker.idle and published).
	nidle      atomic.Int32
	nsearching atomic.Int32
	stats      atomicStats
	shards     []statShard // per-worker hot counters (see stats.go)
	pools      runtimePools
	// wheel is the run's shared hashed timer wheel: Latency expirations,
	// scope deadlines, and fault-delayed wakeups all ride it, so many
	// thousand sleeping tasks cost one timer goroutine.
	wheel *timerwheel.Wheel

	// aux holds run-scoped singletons created by subsystems layered on
	// the runtime (the I/O dispatcher); closers run after the pool
	// drains, in reverse creation order.
	auxMu      sync.Mutex
	aux        map[any]any
	auxClosers []func()

	errMu      sync.Mutex
	firstErr   error
	suppressed []string
}

// Aux returns the run-scoped singleton stored under key, creating it
// with ctor on first use. The optional closer returned by ctor runs when
// the run drains (after every task has finished, before Run returns).
// This is how package-level subsystems (lhws/internal/io) attach one
// instance per Run without the runtime importing them.
func (c *Ctx) Aux(key any, ctor func() (value any, closer func())) any {
	rt := c.t.rt
	rt.auxMu.Lock()
	defer rt.auxMu.Unlock()
	if v, ok := rt.aux[key]; ok {
		return v
	}
	v, closer := ctor()
	if rt.aux == nil {
		rt.aux = make(map[any]any)
	}
	rt.aux[key] = v
	if closer != nil {
		rt.auxClosers = append(rt.auxClosers, closer)
	}
	return v
}

// Wheel returns the run's shared hashed timer wheel — the same one that
// drives Latency expirations and scope deadlines. Run-scoped subsystems
// (the I/O dispatcher's per-op deadlines) arm their timers here instead
// of keeping a second wheel goroutine per run: a million pending I/O
// deadlines are a million O(1) list inserts on one wheel, and timers
// expiring in the same tick complete together, so their wakeups batch
// into drainResumed's single pfor-tree injection like every other
// same-drain completion. The wheel is shut down after the pool drains
// and before run-scoped auxiliaries close (see Run), so an aux closer
// never races a firing callback.
func (c *Ctx) Wheel() *timerwheel.Wheel { return c.t.rt.wheel }

func (rt *runtimeState) closeAux() {
	rt.auxMu.Lock()
	closers := rt.auxClosers
	rt.auxClosers = nil
	rt.auxMu.Unlock()
	for i := len(closers) - 1; i >= 0; i-- {
		closers[i]()
	}
}

// noteFatal records a run-fatal error: the first one wins and becomes
// Run's return value, later ones are kept (bounded) for Stats. The same
// error value arriving twice — e.g. recordFatal's cancel echoing back
// through the root-scope hook — is recorded once.
func (rt *runtimeState) noteFatal(err error) {
	rt.errMu.Lock()
	switch {
	case rt.firstErr == nil:
		rt.firstErr = err
	case rt.firstErr != err && len(rt.suppressed) < maxSuppressedErrors:
		rt.suppressed = append(rt.suppressed, err.Error())
	}
	rt.errMu.Unlock()
}

// recordFatal is the unified failure path for panics and run-level
// faults: record the error, then cancel the root scope so every task —
// running, queued, or suspended — unwinds and the run drains cleanly
// instead of leaking goroutines.
func (rt *runtimeState) recordFatal(err error) {
	rt.noteFatal(err)
	rt.root.cancel(err)
}

// atomicStats holds the cold global counters; the per-quantum hot
// counters are sharded per worker in statShard (see stats.go).
type atomicStats struct {
	TasksCanceled atomic.Int64
	TasksPanicked atomic.Int64
	TasksLate     atomic.Int64
	TargetCancels atomic.Int64
	MaxDeques     atomic.Int32
}

// live returns how many of the run's tasks were counted unfinished. Spawns
// and completions are counted on the shard of the worker that made them,
// so neither writes a run-wide word; the price is that the sum is not one
// instantaneous read. It is exact at zero all the same. Every shard's
// tasksDone is summed first, by some instant T, and every tasksSpawned
// after T. Both counters only grow, so the first sum is at most the
// run's completions at T and the second at least its spawns at T. A task
// is counted spawned before it can run, let alone finish, so completions
// at T never exceed spawns at T. A result of zero therefore means that at
// T every spawned task had finished; with no task left to spawn one, none
// ever starts again. (Read the other way round, a spawn and its
// completion could both fall between the two sums and leave them equal
// while the spawning parent still runs.)
func (rt *runtimeState) live() int64 {
	var n int64
	for i := range rt.shards {
		n -= rt.shards[i].tasksDone.Load()
	}
	for i := range rt.shards {
		n += rt.shards[i].tasksSpawned.Load()
	}
	return n
}

// finished reports whether every task of the run has completed (see
// live). The root task is counted before any worker starts, so a run
// that has not begun is not finished. A worker that sees finished wakes
// every parked worker before it leaves its loop, so each sees it too.
func (rt *runtimeState) finished() bool {
	return rt.live() == 0
}

// published is called after work other workers could take has been made
// visible — a PushBottom by spawn, a resumed-set injection, a pfor split:
// one shared load while nobody is parked.
func (rt *runtimeState) published() {
	if rt.nidle.Load() != 0 {
		rt.wakeOne()
	}
}

// wakeOne wakes one parked worker to search for the work just published,
// unless some worker is searching already: that one will find it, or will
// re-check after leaving nsearching (idle), and the last searcher to find
// work wakes the next (foundWork). The 0→1 CAS reserves the woken
// worker's searching slot, so concurrent publishers wake one worker
// between them — Go's wakep.
func (rt *runtimeState) wakeOne() {
	if rt.nsearching.Load() != 0 || !rt.nsearching.CompareAndSwap(0, 1) {
		return
	}
	for _, w := range rt.workers {
		if w.parked.Load() && rt.wake(w, true) {
			return
		}
	}
	rt.nsearching.Add(-1)
}

// wake is the single worker-wake function of the run's normal paths: the
// owner wake of addResumed and wakeOne both end here, and so does
// the WorkerWake fault point — Drop loses the wake, Delay defers it, Dup
// repeats it later. searching says the caller reserved a slot in
// nsearching for w; wake reports whether that slot was handed on (to w,
// or to a deferred wake that releases it if w turns out not to be
// parked). Recovery paths use wakeAll, which the injector cannot touch.
func (rt *runtimeState) wake(w *worker, searching bool) bool {
	if inj := rt.cfg.Faults; inj != nil {
		switch act, d := inj.Decide(faultpoint.WorkerWake); act {
		case faultpoint.Drop:
			return false
		case faultpoint.Delay:
			rt.pendingWakes.Add(1)
			go rt.wakeLater(w, searching, d)
			return true
		case faultpoint.Dup:
			rt.pendingWakes.Add(1)
			go rt.wakeLater(w, false, d)
		}
	}
	return w.unpark(searching)
}

// wakeLater delivers a fault-deferred (or duplicated) wake after d. By
// then w may be running, or parked again: the claim in unpark makes the
// first a no-op and the second an ordinary spurious wake, so a late token
// never lands in the slot of a park it was not sent for. It counts as a
// pending wake meanwhile, so the watchdog does not read the delay as a
// stall.
func (rt *runtimeState) wakeLater(w *worker, searching bool, d time.Duration) {
	time.Sleep(d)
	rt.pendingWakes.Add(-1)
	if !w.unpark(searching) && searching {
		rt.nsearching.Add(-1)
	}
}

// wakeAll wakes every parked worker: at the end of the run, and when the
// root scope is canceled (deadline, fatal error, watchdog) — a parked
// worker whose wake was lost holds resumed tasks only it can drain, and
// they must run to unwind. It bypasses the fault injector so recovery
// stays reliable at any fault rate.
func (rt *runtimeState) wakeAll() {
	for _, w := range rt.workers {
		w.unpark(false)
	}
}

// failSteal consults the fault injector's steal point. One nil check
// when chaos is off; the Decide call itself takes only a leaf mutex.
// Fail aborts the attempt; Delay models steal-latency inflation — the
// nonzero steal latency of the Gast et al. analyses — by stalling the
// thief before the attempt proceeds.
func (rt *runtimeState) failSteal() bool {
	inj := rt.cfg.Faults
	if inj == nil {
		return false
	}
	switch act, d := inj.Decide(faultpoint.Steal); act {
	case faultpoint.Fail:
		return true
	case faultpoint.Delay:
		time.Sleep(d)
		return false
	default:
		return false
	}
}

package runtime

import (
	"sync"
	"sync/atomic"
	"time"

	"lhws/internal/deque"
	"lhws/internal/rng"
)

// worker is one scheduling loop. In latency-hiding mode it owns a dynamic
// collection of deques (one active); in blocking mode it owns exactly one.
type worker struct {
	rt   *runtimeState
	id   int
	rnd  *rng.RNG
	stat *statShard // this worker's hot-counter shard (see stats)

	// stealBuf receives PopTopBatch transfers; owner-role access only,
	// entries nil'd after every transfer so no stolen item is retained.
	stealBuf []deque.Item

	// mu guards the fields thieves and resume callbacks touch: the active
	// pointer, the ready-deque list and the resume inbox.
	mu     sync.Mutex
	active *rdeque
	ready  []*rdeque
	// resumed is the resume inbox (Figure 3's resumed sets, all of this
	// worker's deques in one list): the waiters whose claim woke a task
	// this worker must push — a heavy edge's task back onto its home
	// deque, a join waiter that yielded to this worker onto the active
	// deque. drainResumed groups it by home.
	resumed []*waiter
	// resumedPending mirrors len(resumed) > 0 (written under mu, read
	// without it): drainResumed skips the lock while nothing has resumed,
	// and a join runs its child as a call only while nothing waits for
	// injection (see Ctx.popUnstolen).
	resumedPending atomic.Bool

	assigned     *task
	live         int32 // allocated deques owned (Lemma 7 observable)
	failedSteals int

	// Parking state (see idle). parked is the worker's announcement that it
	// is about to block with nothing to run; whoever flips it back — the
	// worker itself, or one waker — ends that park, and a waker that does
	// sends exactly one token on sema, which the worker always consumes
	// before it announces again. So the one-slot buffer is never full when
	// a token is sent and never holds a token from an earlier park. The
	// token's value is whether the waker reserved a searching slot in
	// rt.nsearching for the worker; searching is the worker's own copy of
	// "I am counted there" (worker-goroutine access only).
	parked    atomic.Bool
	sema      chan bool
	searching bool

	// Worker-local free lists (owner-role access only; see pool.go).
	taskCache  []*task
	sliceCache [][]*task
	inboxBuf   []*waiter // spare resumed buffer, ping-ponged by drainResumed

	// shells lists every task shell whose coroutine this worker created
	// (owner-role access only), wherever the shell is now — in a free
	// list, dropped from the pool, or running elsewhere: Run stops them
	// all once the run has drained.
	shells []*task
}

func newWorker(rt *runtimeState, id int, r *rng.RNG) *worker {
	return &worker{rt: rt, id: id, rnd: r, stat: &rt.shards[id],
		stealBuf: make([]deque.Item, DefaultStealBatch), sema: make(chan bool, 1)}
}

// loop is the scheduling loop of both modes (Figure 3). It parks only
// when, after announcing, nothing is runnable, resumable or stealable
// (see idle): a worker blocked while a ready or resumed vertex exists is
// the idle time Theorem 2 charges to the scheduler. The only other
// sanctioned wait is the coroutine switch in runTask, justified at its
// call site.
//
// Blocking mode is the paper's baseline, a policy branch here: its worker
// keeps one permanent deque, so it never retires or switches, and its
// tasks never suspend, so nothing reaches its inbox and drainResumed
// costs it one atomic load.
//
// The worker-loop goroutine is the unique owner of its active deque.
// TestWorkerNeverBlocks checks that it blocks nowhere but in idle.
func (w *worker) loop() {
	w.adoptDeque(newRdeque(w))
	hiding := w.rt.cfg.Mode != Blocking
	for {
		w.drainResumed()
		t := w.assigned
		w.assigned = nil
		if t == nil && w.active != nil {
			if it, ok := w.active.q.PopBottom(); ok {
				t = w.resolveItem(it)
			}
		}
		if t != nil {
			w.foundWork()
			// The coroutine switch parks the loop only while its task
			// runs: a latency-hiding task yields back at every scheduling
			// point, and a blocking-mode task runs to completion once
			// switched in, the baseline being measured.
			w.runTask(t)
			continue
		}
		if hiding {
			w.retireActive()
			if w.trySwitch() {
				continue
			}
		}
		if w.trySteal() {
			continue
		}
		if w.rt.finished() {
			w.rt.wakeAll()
			return
		}
		w.idle()
	}
}

// runTask switches into the task's coroutine on this worker and returns
// when the task either finishes or suspends. Only the worker loops switch
// into tasks; a task that joins or helps runs the popped task as a call
// instead (Ctx.runInline). The running counter brackets the switch so the
// watchdog can tell an actively executing run from a stalled one. A
// finished shell is returned to the task free list here: the coroutine
// switch back orders every task-side write before the recycle. A
// suspended task is marked parked, the last access here: from then on a
// join's completer may push it onto another deque.
func (w *worker) runTask(t *task) reportKind {
	w.stat.tasksRun.Add(1)
	w.stat.running.Add(1)
	t.fresh = false
	t.w = w
	t.parked.Store(false)
	r := t.switchIn()
	w.stat.running.Add(-1)
	switch {
	case r == reportSuspended:
		t.parked.Store(true)
	case t.recycle:
		w.releaseTask(t)
	}
	return r
}

// drainResumed implements addResumedVertices (Figure 3, lines 7-14): it
// takes the inbox and, for each home deque in the order of its first
// wake, injects that deque's woken tasks as ONE deque item — a pfor-tree
// node over the batch (see pfor.go) — and marks non-active deques ready.
// Injection is O(1) per deque in the batch size; the tree splits lazily
// as it is popped or stolen. A batch of one skips the tree and pushes the
// task directly. Join waiters have no home: they go last onto the active
// deque (a fresh one if there is none), one singleton each. An injection
// of more than the one task this worker runs next is work for a parked
// worker. It runs on the worker-loop goroutine, which owns every deque it
// drains.
//
// A waiter is held by its task's own reference until the task runs again
// (finishWait), so it may be read only until its task is pushed: a thief
// can run a pushed task at once. The first pass therefore reads every
// waiter and keeps only the first wake of each home (and the joins); the
// later passes read each kept waiter just before pushing its task.
func (w *worker) drainResumed() {
	if !w.resumedPending.Load() {
		// A wake racing this load is seen by the next iteration, exactly
		// as one landing just after the unlock below would be.
		return
	}
	w.mu.Lock()
	inbox := w.resumed
	w.resumed = w.inboxBuf
	w.resumedPending.Store(false)
	w.mu.Unlock()
	for i, wt := range inbox {
		d := wt.home
		if d == nil {
			continue // a join, pushed last
		}
		if d.woken == nil {
			d.woken = w.getSlice()
		} else {
			inbox[i] = nil // pushed with d's first wake
		}
		d.woken = append(d.woken, wt.t)
	}
	for i, wt := range inbox {
		if wt == nil || wt.home == nil {
			continue
		}
		d := wt.home
		inbox[i] = nil
		ts := d.woken
		d.woken = nil
		d.suspendCtr.Add(-int64(len(ts)))
		if len(ts) == 1 {
			d.q.PushBottom(w.newTaskNode(ts[0]))
			ts[0] = nil
			w.putSlice(ts[:0])
		} else {
			w.stat.resumeBatches.Add(1)
			w.stat.resumeBatchTasks.Add(int64(len(ts)))
			d.q.PushBottom(w.newBatchNode(ts))
		}
		if d != w.active {
			w.addReady(d)
		}
	}
	for i, wt := range inbox {
		if wt == nil {
			continue
		}
		inbox[i] = nil
		if w.active == nil {
			w.adoptDeque(w.getRdeque())
		}
		w.active.q.PushBottom(w.newTaskNode(wt.t))
	}
	if len(inbox) > 1 {
		w.rt.published()
	}
	w.inboxBuf = inbox[:0]
}

// addResumed is the resume callback (Figure 3, lines 1-5) for every wake
// this worker must push: a heavy edge's claim (timer, channel, external
// completion, cancel abort) for a task whose home deque w owns, and the
// slow path of waiter.continueOn for a join waiter that yielded (or is
// yielding) to w — only w may push that task, since only w knows when its
// coroutine has yielded. It wakes w if it is parked: the inbox is drained
// by its owner only, so no other worker can make the task runnable.
// Called from timer, completion and completer goroutines. Publish first,
// look second — the mirror of idle's announce-then-re-check.
func (w *worker) addResumed(wt *waiter) {
	w.mu.Lock()
	w.resumed = append(w.resumed, wt)
	w.resumedPending.Store(true)
	w.mu.Unlock()
	if w.parked.Load() {
		w.rt.wake(w, false)
	}
}

// addReady appends d to the ready list; the inReadySet flag (guarded by
// w.mu) makes membership O(1) instead of a list scan.
func (w *worker) addReady(d *rdeque) {
	w.mu.Lock()
	if !d.inReadySet {
		d.inReadySet = true
		w.ready = append(w.ready, d)
	}
	w.mu.Unlock()
}

// retireActive drops an exhausted active deque — recycling it through the
// worker's free list — or abandons it (keeping ownership for pending
// callbacks) when tasks belonging to it are still suspended. Recycling an
// idle deque is safe even against a thief still holding a pointer to it:
// the Chase–Lev indices are never reset, so the stale thief performs an
// ordinary steal against the deque's next contents (see pool.go).
func (w *worker) retireActive() {
	a := w.active
	if a == nil {
		return
	}
	drop := a.idle()
	w.mu.Lock()
	w.active = nil
	if drop {
		w.live--
	}
	w.mu.Unlock()
	if drop {
		w.putRdeque(a)
	}
}

// trySwitch activates one of the worker's ready deques (Figure 3,
// lines 46-48). Selection is deadline-aware: if any ready deque carries
// a latency target (WithTarget/WithDeadline), the earliest-target deque
// wins — EDF among the worker's own deques — so a request that can still
// meet its target is not starved behind later-arriving target-free work.
// With no target anywhere in the run (rt.activeTargets, as in trySteal)
// the scan is skipped and selection stays LIFO, preserving the locality
// the paper's §6 policy relies on.
func (w *worker) trySwitch() bool {
	w.mu.Lock()
	n := len(w.ready)
	if n == 0 {
		w.mu.Unlock()
		return false
	}
	pick := n - 1
	if w.rt.activeTargets.Load() > 0 {
		best := int64(0)
		for i := n - 1; i >= 0; i-- {
			if tgt := w.ready[i].targetNs.Load(); tgt != 0 && (best == 0 || tgt < best) {
				best, pick = tgt, i
			}
		}
	}
	d := w.ready[pick]
	w.ready[pick] = w.ready[n-1]
	w.ready[n-1] = nil
	w.ready = w.ready[:n-1]
	d.inReadySet = false
	w.active = d
	w.mu.Unlock()
	w.stat.switches.Add(1)
	return true
}

// trySteal is the shared steal core for both scheduling modes: one
// attempt under the §6 policy — choose a victim worker uniformly (see
// pickVictim), then a deque uniformly among its active and ready deques
// — followed by a batched transfer. The candidate is indexed
// directly under the victim's lock; no candidate slice is materialized.
// In Blocking mode the victim's ready list is always empty and the thief
// keeps its single permanent deque, so the same code degenerates to
// classic single-deque stealing with batching.
//
// Two deadline-aware refinements layer on top. Both are skipped — along
// with the time.Now() call that prices them — unless some deque in the
// run currently carries a latency target (rt.activeTargets), so
// target-free workloads pay zero clock reads per attempt. First,
// preference: if any of the victim's deques carries a still-feasible
// target, the thief takes the earliest-target one instead of a random
// pick, spreading workers onto the request closest to its deadline.
// Second, gating: when Config.ShedBlownTargets is set and the chosen
// deque's target has already passed, the thief does not steal from it —
// pulling more workers into a subtree that will miss its target anyway
// is the overload collapse mode — and instead sheds the subtree by
// canceling its scope with ErrTargetMissed, so its tasks unwind and
// capacity returns to feasible work.
//
// The transfer itself is the steal-half batching of Rito & Paulino
// (arXiv:1810.10615): PopTopBatch moves up to half the victim deque —
// capped at DefaultStealBatch — as a run of single-item CASes on top, so
// the victim pick and the deque adoption are paid per transfer, not per
// item. Another thief may take items between two of the run's, but the
// batch still comes out oldest first. The batch tail is re-pushed onto
// the thief's deque oldest-first, making the thief's deque the stolen
// items in their victim order: the topmost item is the oldest
// (stealable onward by the next thief), the bottom the deepest, and the
// thief runs the very oldest item first — observably a single classic
// steal of the top item plus further steals from the top. The victim
// deque's target marker migrates once per batch, not per item. The tail
// goes onto w.active, which the thief owns: freshly adopted in
// latency-hiding mode, the permanent single deque in blocking mode.
func (w *worker) trySteal() bool {
	if !w.searching {
		w.searching = true
		w.rt.nsearching.Add(1)
	}
	w.stat.stealAttempts.Add(1)
	if w.rt.failSteal() {
		return false
	}
	victim := w.pickVictim()
	if victim == nil {
		return false
	}
	var now int64
	scanTargets := w.rt.activeTargets.Load() > 0
	if scanTargets {
		now = time.Now().UnixNano()
	}
	victim.mu.Lock()
	var target *rdeque
	var bestTgt int64
	nready := len(victim.ready)
	total := nready
	if victim.active != nil {
		total++
	}
	if scanTargets {
		for _, d := range victim.ready {
			if tgt := d.targetNs.Load(); tgt != 0 && tgt > now && (bestTgt == 0 || tgt < bestTgt) {
				target, bestTgt = d, tgt
			}
		}
		if a := victim.active; a != nil {
			if tgt := a.targetNs.Load(); tgt != 0 && tgt > now && (bestTgt == 0 || tgt < bestTgt) {
				target, bestTgt = a, tgt
			}
		}
	}
	if target == nil && total > 0 {
		if i := w.rnd.Intn(total); i < nready {
			target = victim.ready[i]
		} else {
			target = victim.active
		}
	}
	victim.mu.Unlock()
	if target == nil {
		return false
	}
	if scanTargets && w.rt.cfg.ShedBlownTargets {
		if sc, tgt, blown := target.blownTarget(now); blown {
			// The shed path, not a steal hot path: cancel takes the scope
			// tree's leaf mutexes, O(children) each.
			if sc != nil && sc.cancel(ErrTargetMissed) {
				w.rt.stats.TargetCancels.Add(1)
				return false
			}
			// The scope that set the target is already canceled or done:
			// the marker is stale. Retire it and steal normally instead of
			// repelling thieves from a deque that has moved on to
			// unrelated work.
			target.clearBlownTarget(w.rt, tgt)
		}
	}
	n := target.q.PopTopBatch(w.stealBuf, DefaultStealBatch)
	if n == 0 {
		return false
	}
	w.stat.steals.Add(1)
	w.stat.batchItems.Add(int64(n))
	if w.rt.cfg.Mode != Blocking {
		w.adoptDeque(w.getRdeque())
		// The stolen work carries the victim deque's target with it —
		// once per batch — so EDF preference and steal gating keep
		// following the subtree on the thief's side. Blocking mode skips
		// the migration: its single permanent deque would accumulate
		// CAS-min markers it can never retire.
		if tgt := target.targetNs.Load(); tgt != 0 {
			w.active.noteTarget(tgt, target.targetScope.Load())
		}
	}
	it0 := w.stealBuf[0]
	for i := 1; i < n; i++ {
		w.active.q.PushBottom(w.stealBuf[i])
	}
	for i := 0; i < n; i++ {
		w.stealBuf[i] = nil
	}
	// Resolve after the tail transfer: a stolen pfor node splits onto the
	// thief's deque below the batch tail, keeping its left half-ranges
	// stealable here.
	w.assigned = w.resolveItem(it0)
	return true
}

// pickVictim draws the victim uniformly over the other workers — the
// paper's §6 policy — or returns nil when the thief is alone.
func (w *worker) pickVictim() *worker {
	n := len(w.rt.workers)
	if n == 1 {
		return nil
	}
	vi := w.rnd.Intn(n - 1)
	if vi >= w.id {
		vi++
	}
	return w.rt.workers[vi]
}

// adoptDeque installs a fresh deque as the active deque and updates the
// per-worker allocation high-water mark.
func (w *worker) adoptDeque(d *rdeque) {
	w.mu.Lock()
	w.active = d
	w.live++
	live := w.live
	w.mu.Unlock()
	for {
		cur := w.rt.stats.MaxDeques.Load()
		if live <= cur || w.rt.stats.MaxDeques.CompareAndSwap(cur, live) {
			break
		}
	}
}

// spinProbes is how many failed steal attempts a worker retries at once
// while it can see queued work somewhere, before it starts sleeping
// between them. A uniform victim draw can miss the one worker that has
// work: with one loaded worker among P−1 candidates, 8 draws all miss it
// with probability ((P−2)/(P−1))^8, under 4 % at P = 4.
const spinProbes = 8

// foundWork ends a search: the worker has a task to run. The last
// searcher to find work wakes one more parked worker, because publishers
// that saw a searcher did not (see runtimeState.published): that is how a
// burst of work spreads one wake at a time instead of as a storm.
func (w *worker) foundWork() {
	w.failedSteals = 0
	if w.searching {
		w.searching = false
		if w.rt.nsearching.Add(-1) == 0 {
			w.rt.published()
		}
	}
}

// idle is where a worker whose steal attempt failed finds out whether to
// try again or to park. It parks by a three-step handshake:
//
//  1. announce: set parked, count itself in rt.nidle, and leave
//     rt.nsearching — in that order, before looking;
//  2. re-check every source of work: its own resume inbox, every worker's
//     active and ready deques, and the end of the run;
//  3. block on its one-slot semaphore only if all of them were empty.
//
// Wakers do the mirror image — publish the work, then look at parked /
// nidle / nsearching (addResumed, published, the end of
// the run, a root cancel). Go atomics are sequentially consistent, so an
// announcement and a publication cannot both miss each other: either the
// re-check sees the work, or the waker sees the announcement (or a
// searcher that has not yet left nsearching and will therefore re-check
// after the publication).
//
// There is no spin before the announcement: the re-check is a
// deterministic sweep that costs about what one more random probe would,
// and a worker with nothing in sight parks at once. In particular it never
// yields: runtime.Gosched would put it on Go's global run queue, behind
// every runnable goroutine of a busy process, where it is neither running
// nor parked and so cannot be woken for the resumed tasks only it can
// drain (a ≈1 ms tail mode on the serve benchmark), whereas a parked
// worker is made runnable next on its waker's P.
//
// If the re-check finds work the worker withdraws the announcement and
// tries again, spinProbes times at once. Work that stays visible while
// steals keep failing beyond that (an injected steal fault, a blown-target
// deque being shed, a victim popping its last item itself) is the one case
// left for a timed wait: a capped exponential sleep, 1µs doubling to 100µs.
func (w *worker) idle() {
	w.failedSteals++
	rt := w.rt
	w.parked.Store(true)
	rt.nidle.Add(1)
	if w.searching {
		w.searching = false
		rt.nsearching.Add(-1)
	}
	if !w.workVisible() || !w.parked.CompareAndSwap(true, false) {
		// Nothing to run — or there is, but a waker ended this park during
		// the re-check and its token is on its way. Either way the park
		// ends with a token, so Parks and WorkerWakes count the same events.
		w.stat.parks.Add(1)
		w.searching = <-w.sema
		w.failedSteals = 0
		return
	}
	rt.nidle.Add(-1)
	shift := w.failedSteals - spinProbes - 1
	if shift < 0 {
		return
	}
	if shift > 7 {
		shift = 7
	}
	d := time.Microsecond << uint(shift)
	if d > 100*time.Microsecond {
		d = 100 * time.Microsecond
	}
	time.Sleep(d)
}

// workVisible is idle's re-check: whether anything this worker could run
// exists right now. Own ready deques are covered by the sweep.
func (w *worker) workVisible() bool {
	if w.resumedPending.Load() || w.rt.finished() {
		return true
	}
	for _, v := range w.rt.workers {
		if v.queuedDeques() != 0 {
			return true
		}
	}
	return false
}

// queuedDeques counts the worker's deques that hold at least one item.
func (w *worker) queuedDeques() int {
	n := 0
	w.mu.Lock()
	if a := w.active; a != nil && !a.q.Empty() {
		n++
	}
	for _, d := range w.ready {
		if !d.q.Empty() {
			n++
		}
	}
	w.mu.Unlock()
	return n
}

// unpark ends w's park on behalf of a waker: the CAS on parked is the
// claim, so of any number of concurrent wakers (and the worker's own
// withdrawal) exactly one wins, and only the winner sends a token.
// searching tells the worker it was counted in rt.nsearching by the
// waker. Reports whether this call was the one that woke the worker.
func (w *worker) unpark(searching bool) bool {
	if !w.parked.CompareAndSwap(true, false) {
		return false
	}
	w.rt.nidle.Add(-1)
	w.stat.wakes.Add(1)
	select {
	case w.sema <- searching:
	default:
		panic("runtime: worker wake token slot already full")
	}
	return true
}

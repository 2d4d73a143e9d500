package runtime

import (
	goruntime "runtime"
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

	// shardLo/shardHi bound this worker's locality shard [lo, hi) for
	// two-level victim selection (see pickVictim); fixed at Run setup.
	shardLo, shardHi int
	// stealBuf receives PopTopBatch transfers; owner-role access only,
	// entries nil'd after every transfer so no stolen item is retained.
	stealBuf []deque.Item

	// mu guards the fields thieves and resume callbacks touch: the active
	// pointer, the ready-deque list, and the resumed-deque list.
	mu        sync.Mutex
	active    *rdeque
	ready     []*rdeque
	resumedDq []*rdeque
	// resumedPending mirrors len(resumedDq) > 0 (written under mu, read
	// without it): drainResumed skips the lock while nothing has resumed,
	// and a join runs its child as a call only while nothing waits for
	// injection (see Ctx.popUnstolen).
	resumedPending atomic.Bool

	assigned     *task
	live         int32 // allocated deques owned (Lemma 7 observable)
	failedSteals int

	// Worker-local free lists (owner-role access only; see pool.go).
	taskCache  []*task
	futCache   []*Future
	dqCache    []*rdeque
	nodeCache  []*pforNode
	batchCache []*pforBatch
	sliceCache [][]*task
	drainBuf   []*rdeque // spare resumedDq buffer, ping-ponged by drainResumed
}

func newWorker(rt *runtimeState, id int, r *rng.RNG) *worker {
	n := rt.maxSteal
	if n < 1 {
		n = 1 // runtimeState built outside Run (test harnesses)
	}
	return &worker{rt: rt, id: id, rnd: r, stat: &rt.shards[id],
		stealBuf: make([]deque.Item, n)}
}

// loop is the latency-hiding scheduling loop (Figure 3). It must never
// park: a blocked worker neither executes ready work nor steals, which
// is the idle time Theorem 2's bound assumes away. The only sanctioned
// waits are the task-grant handoff in runTask and the escalating
// backoff, both justified at their call sites.
//
//lhws:nonblocking
//lhws:owner the worker-loop goroutine is the unique owner of its active deque
func (w *worker) loop() {
	w.adoptDeque(newRdeque(w))
	if w.rt.cfg.Mode == Blocking {
		w.loopBlocking()
		return
	}
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
			w.failedSteals = 0
			w.runTask(t) //lhws:allowblock the grant handoff parks the loop only while its task runs; the task yields back at every scheduling point
			continue
		}
		w.retireActive()
		if w.trySwitch() {
			continue
		}
		if w.trySteal() {
			continue
		}
		if w.rt.finished() {
			return
		}
		w.backoff()
	}
}

// loopBlocking is the baseline work-stealing loop. It is held to the
// same no-parking discipline as loop: in Blocking mode the latency cost
// lands inside tasks (time.Sleep on the worker's goroutine during
// runTask), not in the scheduling loop itself.
//
//lhws:nonblocking
//lhws:owner the worker-loop goroutine is the unique owner of its single deque
func (w *worker) loopBlocking() {
	for {
		t := w.assigned
		w.assigned = nil
		if t == nil {
			if it, ok := w.active.q.PopBottom(); ok {
				t = w.resolveItem(it)
			}
		}
		if t != nil {
			w.failedSteals = 0
			//lhws:allowblock blocking-mode tasks run to completion on the grant; that cost is the baseline being measured
			w.runTask(t)
			continue
		}
		if w.trySteal() {
			continue
		}
		if w.rt.finished() {
			return
		}
		w.backoff()
	}
}

// runTask grants the worker's slot to the task's goroutine and waits for
// it to either finish or suspend. Only the worker loops grant; a task that
// joins or helps runs the popped task as a call instead (Ctx.runInline).
// The running counter brackets the grant so the watchdog can tell an
// actively executing run from a stalled one. A finished shell is returned
// to the task free list here: the report-channel receive orders every
// task-side write before the recycle.
func (w *worker) runTask(t *task) reportKind {
	w.stat.tasksRun.Add(1)
	w.stat.running.Add(1)
	t.fresh = false
	if !t.started {
		t.started = true
		go t.main()
	}
	t.resume <- w
	r := <-t.report
	w.stat.running.Add(-1)
	if r == reportDone && t.recycle {
		w.releaseTask(t)
	}
	return r
}

// drainResumed implements addResumedVertices (Figure 3, lines 7-14): for
// each deque with pending resumed tasks, inject the whole batch as ONE
// deque item — a pfor-tree node over the batch (see pfor.go) — and mark
// non-active deques ready. Injection is O(1) per deque in the batch size;
// the tree splits lazily as it is popped or stolen. A batch of one skips
// the tree and pushes the task directly.
//
//lhws:nonblocking
//lhws:owner runs on the worker-loop goroutine, which owns every deque it drains
func (w *worker) drainResumed() {
	if !w.resumedPending.Load() {
		// A registration racing this load is seen by the next iteration,
		// exactly as one landing just after the unlock below would be.
		return
	}
	w.mu.Lock() //lhws:allowblock leaf mutex with O(1) critical sections, never held across a wait
	dqs := w.resumedDq
	w.resumedDq = w.drainBuf
	w.drainBuf = nil
	w.resumedPending.Store(false)
	w.mu.Unlock()
	for i, d := range dqs {
		dqs[i] = nil
		ts := d.takeResumed(w.getSlice())
		switch len(ts) {
		case 0:
			// Raced with a previous drain; nothing pending after all.
			w.putSlice(ts)
		case 1:
			t := ts[0]
			ts[0] = nil
			d.q.PushBottom(w.newTaskNode(t))
			w.putSlice(ts[:0])
		default:
			w.stat.resumeBatches.Add(1)
			w.stat.resumeBatchTasks.Add(int64(len(ts)))
			d.q.PushBottom(w.newBatchNode(ts))
		}
		if d != w.active {
			w.addReady(d)
		}
	}
	w.drainBuf = dqs[:0]
}

// noteResumedDeque registers a deque whose first resumed task just
// arrived. Called from timer and completion goroutines.
func (w *worker) noteResumedDeque(d *rdeque) {
	w.mu.Lock()
	w.resumedDq = append(w.resumedDq, d)
	w.resumedPending.Store(true)
	w.mu.Unlock()
}

// addReady appends d to the ready list; the inReadySet flag (guarded by
// w.mu) makes membership O(1) instead of a list scan.
//
//lhws:nonblocking
func (w *worker) addReady(d *rdeque) {
	w.mu.Lock() //lhws:allowblock leaf mutex with O(1) critical section, never held across a wait
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
//
//lhws:nonblocking
func (w *worker) retireActive() {
	a := w.active
	if a == nil {
		return
	}
	drop := a.idle()
	w.mu.Lock() //lhws:allowblock leaf mutex with O(1) critical section, never held across a wait
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
// With no targets in play the scan finds nothing and selection stays
// LIFO, preserving the locality the paper's §6 policy relies on.
//
//lhws:nonblocking
func (w *worker) trySwitch() bool {
	w.mu.Lock() //lhws:allowblock leaf mutex with O(1) critical section, never held across a wait
	n := len(w.ready)
	if n == 0 {
		w.mu.Unlock()
		return false
	}
	pick := n - 1
	best := int64(0)
	for i := n - 1; i >= 0; i-- {
		if tgt := w.ready[i].targetNs.Load(); tgt != 0 && (best == 0 || tgt < best) {
			best, pick = tgt, i
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
// attempt under the §6 policy — choose a victim worker (two-level
// locality selection, see pickVictim), then a deque among its active and
// ready deques — followed by a batched transfer. The candidate is indexed
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
// capped by Config.MaxStealBatch — under one claim + one committing CAS,
// so synchronization is paid per transfer, not per item. The batch tail
// is re-pushed onto the thief's deque oldest-first, making the thief's
// deque the stolen range verbatim: the topmost item is the oldest
// (stealable onward by the next thief), the bottom the deepest, and the
// thief runs the very oldest item first — observably a single classic
// steal of the top item plus a prefix transfer. The victim deque's
// target marker migrates once per batch, not per item.
//
//lhws:owner runs on the worker-loop goroutine; the batch tail is pushed onto w.active, which this thief owns (freshly adopted in latency-hiding mode, the permanent single deque in blocking mode)
//lhws:nonblocking
func (w *worker) trySteal() bool {
	w.stat.stealAttempts.Add(1)
	if w.rt.failSteal() {
		return false
	}
	victim, local := w.pickVictim()
	if victim == nil {
		return false
	}
	var now int64
	scanTargets := w.rt.activeTargets.Load() > 0
	if scanTargets {
		now = time.Now().UnixNano()
	}
	victim.mu.Lock() //lhws:allowblock leaf mutex on the victim, O(1) critical section, never held across a wait
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
			if sc != nil && sc.cancel(ErrTargetMissed) { //lhws:allowblock shed path, not a steal hot path: scope-tree leaf mutexes with O(children) critical sections, never held across a wait
				w.rt.stats.TargetCancels.Add(1)
				return false
			}
			// The scope that set the target is already canceled or done:
			// the marker is stale. Retire it and steal normally instead of
			// repelling thieves from a deque that has moved on to
			// unrelated work.
			target.clearBlownTarget(tgt)
		}
	}
	n := target.q.PopTopBatch(w.stealBuf, w.rt.maxSteal)
	if n == 0 {
		return false
	}
	w.noteSteal(victim, n, local)
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

// noteSteal records a successful transfer of items from victim in the
// thief's stat shard and feeds the Config.OnSteal observer.
//
//lhws:nonblocking
func (w *worker) noteSteal(victim *worker, items int, local bool) {
	w.stat.steals.Add(1)
	w.stat.batchItems.Add(int64(items))
	if local {
		w.stat.stealsLocal.Add(1)
	} else {
		w.stat.stealsRemote.Add(1)
	}
	if f := w.rt.cfg.OnSteal; f != nil {
		f(StealEvent{Thief: w.id, Victim: victim.id, Items: items, Local: local}) //lhws:allowblock user observer; Config.OnSteal documents it runs on the thief's steal path and must not block
	}
}

// localStealAttempts is how many consecutive failed steals a thief spends
// probing its own locality shard before escalating to uniform-over-all
// victim selection — the near/far tier split of the Gast et al.
// (arXiv:1805.00857) latency model. Reset on any successful pop or steal
// (see loop), so a thief that finds work locally stays local.
const localStealAttempts = 4

// pickVictim chooses a victim under the two-level locality policy:
// while the thief is in its local tier (fewer than localStealAttempts
// consecutive failures) and its shard holds another worker, it probes
// uniformly inside the shard; afterwards it probes uniformly over all
// other workers, which may still land locally. The returned flag reports
// whether the victim shares the thief's shard. With StealShards == 1 the
// whole pool is one shard and selection is the classic uniform policy.
//
//lhws:nonblocking
func (w *worker) pickVictim() (*worker, bool) {
	n := len(w.rt.workers)
	if n == 1 {
		return nil, false
	}
	if w.rt.shardCount > 1 && w.failedSteals < localStealAttempts {
		if span := w.shardHi - w.shardLo; span > 1 {
			vi := w.shardLo + w.rnd.Intn(span-1)
			if vi >= w.id {
				vi++
			}
			return w.rt.workers[vi], true
		}
		// The thief is alone in its shard: local probes could never
		// succeed, so fall through to the escalated tier immediately.
	}
	vi := w.rnd.Intn(n - 1)
	if vi >= w.id {
		vi++
	}
	return w.rt.workers[vi], vi >= w.shardLo && vi < w.shardHi
}

// adoptDeque installs a fresh deque as the active deque and updates the
// per-worker allocation high-water mark.
//
//lhws:nonblocking
func (w *worker) adoptDeque(d *rdeque) {
	w.mu.Lock() //lhws:allowblock leaf mutex with O(1) critical section, never held across a wait
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

// backoff yields the processor between failed steal attempts, escalating
// per steal tier. Local-tier probes (the first localStealAttempts
// failures) and the first few escalated probes only yield — near steals
// are cheap to retry, which is the point of probing them first — then
// the escalated tier climbs a capped exponential sleep ladder (1µs
// doubling to 100µs) so timer goroutines can run even on GOMAXPROCS=1
// while an idle worker's spin cost stays bounded. Reset on any
// successful pop or steal.
//
//lhws:nonblocking
func (w *worker) backoff() {
	w.failedSteals++
	if w.failedSteals <= localStealAttempts+4 {
		goruntime.Gosched()
		return
	}
	shift := w.failedSteals - (localStealAttempts + 5)
	if shift > 7 {
		shift = 7
	}
	d := time.Microsecond << uint(shift)
	if d > 100*time.Microsecond {
		d = 100 * time.Microsecond
	}
	time.Sleep(d) //lhws:allowblock deliberate bounded backoff after repeated failed steals; yields the P so timers fire on GOMAXPROCS=1
}

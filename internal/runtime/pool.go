package runtime

import "sync"

// This file is the hot-path object recycling layer. Lemma 1 charges a
// scheduling quantum O(1) work; recycling keeps that O(1) allocation-free
// once warm. The policy is one tier per kind, and that tier is the run's
// sync.Pool (already per-P) wherever a pool can serve:
//
//   - pool only: waiters, idle rdeques, pfor range nodes and pfor batch
//     headers. (A singleton node is part of its task shell; see pforNode.)
//     A pool scales retention with demand (thousands of suspended tasks
//     at high connection counts) and lets the GC trim it when load falls;
//     objects move between workers through it.
//   - worker-local free list only: the per-home task slices drainResumed
//     groups its inbox into, which become pfor batches (sliceCache).
//     Boxing a slice into a sync.Pool allocates its interface header each
//     round trip, which is the allocation the cache avoids. The inbox
//     itself is one buffer per worker, ping-ponged (worker.inboxBuf).
//   - worker-local free list in front of the pool: task shells. A shell
//     is its struct, its resume channel and its coroutine (a parked
//     goroutine between lives); the local list keeps the hot shells (and
//     their warm coroutines) on the worker that spawns them. Taking shells
//     out of the local list was measured and is too slow: pool-only shells
//     cost mapreduce 6–10% and raised its allocs/op 2–4%, and ending a
//     shell's goroutine when it overflows into the pool cost mapreduce 20%.
//     Known hazard (unfixed): a shell that overflows into the pool keeps
//     its parked coroutine, and when the GC drops the shell from the pool
//     that goroutine stays parked until Run returns — at P = 2, six rounds
//     of a 1000-wide Latency fan-out, each followed by two runtime.GC()
//     calls, took NumGoroutine from 1006 to 5686. Worker-role handoff,
//     which deletes parked shell goroutines, is the fix.
//
// Pools are per-run (hung off runtimeState) so shells never cross Run
// invocations. Each worker lists the shells whose coroutines it created
// (worker.shells), so Run stops every coroutine when the run drains —
// those in free lists, in the pool, and those the pool has dropped.
//
// Safety notes, in one place:
//
//   - task shells: recycled only after the coroutine yields done; the
//     switch back to the worker happens-before the recycling worker
//     touches the shell. The shell's suspension epoch is never reset, so
//     stale wakeups aimed at a previous life fail their claim CAS (see
//     task, waiter).
//   - waiters: reference-counted; a waiter returns to the pool only when
//     the suspending task, the event source, and the cancellation scope
//     have all dropped their references, so no goroutine can call wake on
//     a recycled waiter. A waiter embeds its Latency timer, and only the
//     timer's fire releases the timer's reference: a waiter whose timer
//     was stopped keeps that reference and goes to the GC, because the
//     wheel's fire loop may still hold the stopped timer.
//   - rdeques: recycled only when idle (empty, no suspended or pending
//     resumed tasks). The Chase–Lev top/bottom indices are deliberately
//     NOT reset: they are monotonic, so a thief still holding a stale
//     pointer to the deque performs an ordinary (correct) steal against
//     its current contents, and index reuse (ABA) is impossible.
//   - pfor nodes: a singleton node comes back with its recycled shell
//     around a different task life, so node identity alone is never
//     trusted (see Future.nd).
const (
	taskCacheCap = 64
	// sliceCacheCap is deliberately large: per-home batch buffers are
	// held by in-flight injected batches until fully extracted, so with C
	// connections suspended the working set is ~C tiny slices. A dry
	// cache makes every grouped resume allocate. At 3 words per entry a
	// deep cap costs ~25KiB per worker.
	sliceCacheCap = 1024
)

// runtimePools are the run's shared recycling tier (see above).
type runtimePools struct {
	tasks   sync.Pool // *task (shell + resume channel + coroutine), behind taskCache
	waiters sync.Pool // *waiter
	rdeques sync.Pool // *rdeque (idle; Chase–Lev buffer kept, indices intact)
	nodes   sync.Pool // *pforNode
	batches sync.Pool // *pforBatch
}

// acquireTask returns a shell ready to run r: from the worker-local free
// list, the run's pool, or freshly allocated. Recycled shells keep their
// resume channel, coroutine, and epoch. Owner-role access only.
func (w *worker) acquireTask(r runner) *task {
	var t *task
	if n := len(w.taskCache); n > 0 {
		t = w.taskCache[n-1]
		w.taskCache[n-1] = nil
		w.taskCache = w.taskCache[:n-1]
	} else if v := w.rt.pools.tasks.Get(); v != nil {
		t = v.(*task)
	} else {
		t = newTask(w.rt, nil)
	}
	t.r = r
	t.recycle = true
	return t
}

// releaseTask returns a completed shell to the free list. Called by the
// worker after the shell's coroutine yields done (or by an inline helper
// holding its owner role, after the call returns), which orders all
// task-side writes before the reset.
func (w *worker) releaseTask(t *task) {
	t.r = nil
	t.fut = nil
	t.scope = nil
	t.err = nil
	t.wakeErr = nil
	t.extN = 0
	t.extErr = nil
	t.ctx = Ctx{}
	if len(w.taskCache) < taskCacheCap {
		w.taskCache = append(w.taskCache, t)
		return
	}
	w.rt.pools.tasks.Put(t)
}

// getWaiter takes a waiter from the run's pool. Waiter recycling is
// reference-counted (see waiter.release): Get here may legally return a
// waiter whose previous suspension was claimed long ago, because Put only
// happens at refcount zero.
func (rt *runtimeState) getWaiter() *waiter {
	if v := rt.pools.waiters.Get(); v != nil {
		return v.(*waiter)
	}
	return &waiter{}
}

// getRdeque returns an idle recycled deque (re-owned by w) or a fresh
// one. Owner-role access only.
func (w *worker) getRdeque() *rdeque {
	if v := w.rt.pools.rdeques.Get(); v != nil {
		d := v.(*rdeque)
		d.owner = w
		return d
	}
	return newRdeque(w)
}

// putRdeque recycles an idle deque dropped by retireActive. The deque's
// bookkeeping is already zero (idle) and its Chase–Lev buffer is kept,
// indices intact (see the safety notes above).
func (w *worker) putRdeque(d *rdeque) {
	d.resetTarget()
	d.owner = nil
	w.rt.pools.rdeques.Put(d)
}

// getSlice returns an empty []*task with recycled capacity for one home
// deque's share of a drained inbox. Owner-role access only.
func (w *worker) getSlice() []*task {
	if n := len(w.sliceCache); n > 0 {
		s := w.sliceCache[n-1]
		w.sliceCache[n-1] = nil
		w.sliceCache = w.sliceCache[:n-1]
		return s
	}
	return nil
}

// putSlice recycles a drained batch buffer; entries must already be
// nil'd by the consumer.
func (w *worker) putSlice(s []*task) {
	if s == nil || cap(s) == 0 {
		return
	}
	if len(w.sliceCache) < sliceCacheCap {
		w.sliceCache = append(w.sliceCache, s[:0])
	}
}

// getNode / putNode / getBatch / putBatch recycle pfor range nodes and
// batch headers (see pfor.go). A node or batch may be released by a
// different worker than the one that created it (after a steal).
func (w *worker) getNode() *pforNode {
	if v := w.rt.pools.nodes.Get(); v != nil {
		return v.(*pforNode)
	}
	return &pforNode{}
}

func (w *worker) putNode(nd *pforNode) {
	nd.t = nil
	nd.b = nil
	w.rt.pools.nodes.Put(nd)
}

func (w *worker) getBatch() *pforBatch {
	if v := w.rt.pools.batches.Get(); v != nil {
		return v.(*pforBatch)
	}
	return &pforBatch{}
}

func (w *worker) putBatch(b *pforBatch) {
	b.tasks = nil
	w.rt.pools.batches.Put(b)
}

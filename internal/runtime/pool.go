package runtime

import "sync"

// This file is the hot-path object recycling layer. Per scheduling
// quantum the runtime used to allocate a task struct, two channels, a
// goroutine stack, a Future (plus its cond), a waiter per suspension, and
// a fresh Chase–Lev deque per successful steal. All of those are now
// recycled through two tiers:
//
//   - worker-local free lists (the fields on worker below), touched only
//     while holding the worker's owner role, so they need no locks;
//   - per-run sync.Pools as overflow/underflow backstops, so shells
//     migrate between workers under skewed spawn/steal patterns.
//
// Pools are per-run (hung off runtimeState) so shells never cross Run
// invocations; parked shell goroutines exit when Run closes rt.poolStop.
//
// Safety notes, in one place:
//
//   - task shells: recycled only after the final reportDone handoff, which
//     happens-before the recycling worker touches the shell. The shell's
//     suspension epoch is never reset, so stale wakeups aimed at a
//     previous life fail their claim CAS (see task, waiter).
//   - futures: recycled only through awaitConsume, whose contract is that
//     the future never escapes its single awaiter. Public Spawn futures
//     are user-visible indefinitely and are never pooled.
//   - waiters: reference-counted; a waiter returns to the pool only when
//     the suspending task, the event source, and the cancellation scope
//     have all dropped their references, so no goroutine can call wake on
//     a recycled waiter.
//   - rdeques: recycled only when idle (empty, no suspended or pending
//     resumed tasks). The Chase–Lev top/bottom indices are deliberately
//     NOT reset: they are monotonic, so a thief still holding a stale
//     pointer to the deque performs an ordinary (correct) steal against
//     its current contents, and index reuse (ABA) is impossible.
//
// Cache capacities bound worker-local retention; overflow falls through
// to the run's sync.Pool. Every recycled type gets a pool backstop: the
// I/O data plane holds thousands of tasks suspended at once (one rdeque,
// node, and resumed-set buffer each at C connections), far beyond what a
// worker-local list can usefully retain, and dropping the overflow to
// the GC made the resume path allocate once per request at high C. A
// sync.Pool scales retention with demand and lets the GC trim it when
// load falls.
const (
	taskCacheCap  = 64
	futCacheCap   = 64
	dqCacheCap    = 64
	nodeCacheCap  = 256
	batchCacheCap = 64
	// sliceCacheCap is deliberately large: resumed-set buffers are held
	// by in-flight injected batches until fully extracted, so with C
	// connections suspended the working set is ~C tiny slices. A dry
	// cache makes every resume append allocate. Boxing slices through a
	// sync.Pool would allocate the interface header each round trip, so
	// the worker-local list is the only tier — at 3 words per entry a
	// deep cap costs ~25KiB per worker.
	sliceCacheCap = 1024
)

// runtimePools are the per-run shared backstops behind the worker-local
// free lists.
type runtimePools struct {
	tasks   sync.Pool // *task (shell + channels + parked goroutine)
	futures sync.Pool // *Future (pooled path only)
	waiters sync.Pool // *waiter
	rdeques sync.Pool // *rdeque (idle; Chase–Lev buffer kept, indices intact)
	nodes   sync.Pool // *pforNode
	batches sync.Pool // *pforBatch
}

// acquireTask returns a shell ready to run fn: from the worker-local free
// list, the run's pool, or freshly allocated. Recycled shells keep their
// channels, goroutine, and epoch. Owner-role access only.
//
//lhws:nonblocking
func (w *worker) acquireTask(fn func(*Ctx)) *task {
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
	t.fn = fn
	t.recycle = true
	return t
}

// releaseTask returns a completed shell to the free list. Called by the
// worker (or an inline helper holding its owner role) after receiving the
// shell's reportDone, which orders all task-side writes before the reset.
//
//lhws:nonblocking
func (w *worker) releaseTask(t *task) {
	t.fn = nil
	t.fut = nil
	t.scope = nil
	t.home = nil
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

// acquireFuture returns a reset pooled future (spawnPooled path only).
// The reset locks f.mu, which orders it after any still-unlocking
// complete from the future's previous life.
//
//lhws:nonblocking
func (w *worker) acquireFuture() *Future {
	var f *Future
	if n := len(w.futCache); n > 0 {
		f = w.futCache[n-1]
		w.futCache[n-1] = nil
		w.futCache = w.futCache[:n-1]
	} else if v := w.rt.pools.futures.Get(); v != nil {
		f = v.(*Future)
	} else {
		return newFuture()
	}
	f.mu.Lock() //lhws:allowblock leaf mutex with O(1) critical section, never held across a wait
	f.done.Store(false)
	f.err = nil
	f.w0 = nil
	f.mu.Unlock()
	return f
}

// releaseFuture returns a consumed future to the free list; only
// awaitConsume may call it, per the spawnPooled contract.
//
//lhws:nonblocking
func (w *worker) releaseFuture(f *Future) {
	if len(w.futCache) < futCacheCap {
		w.futCache = append(w.futCache, f)
		return
	}
	w.rt.pools.futures.Put(f)
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
//
//lhws:nonblocking
func (w *worker) getRdeque() *rdeque {
	if n := len(w.dqCache); n > 0 {
		d := w.dqCache[n-1]
		w.dqCache[n-1] = nil
		w.dqCache = w.dqCache[:n-1]
		d.owner = w
		return d
	}
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
//
//lhws:nonblocking
func (w *worker) putRdeque(d *rdeque) {
	d.resetTarget()
	if len(w.dqCache) < dqCacheCap {
		w.dqCache = append(w.dqCache, d)
		return
	}
	d.owner = nil
	w.rt.pools.rdeques.Put(d)
}

// getSlice returns an empty []*task with recycled capacity for a deque's
// resumed set. Owner-role access only.
//
//lhws:nonblocking
func (w *worker) getSlice() []*task {
	if n := len(w.sliceCache); n > 0 {
		s := w.sliceCache[n-1]
		w.sliceCache[n-1] = nil
		w.sliceCache = w.sliceCache[:n-1]
		return s
	}
	return nil
}

// putSlice recycles a drained resumed-set buffer; entries must already be
// nil'd by the consumer.
//
//lhws:nonblocking
func (w *worker) putSlice(s []*task) {
	if s == nil || cap(s) == 0 {
		return
	}
	if len(w.sliceCache) < sliceCacheCap {
		w.sliceCache = append(w.sliceCache, s[:0])
	}
}

// getNode / putNode / getBatch / putBatch recycle pfor-tree nodes and
// batch headers (see pfor.go). Owner-role access only; a node or batch
// may be released by a different worker than the one that created it
// (after a steal), which only shifts capacity between local caches.
//
//lhws:nonblocking
func (w *worker) getNode() *pforNode {
	if n := len(w.nodeCache); n > 0 {
		nd := w.nodeCache[n-1]
		w.nodeCache[n-1] = nil
		w.nodeCache = w.nodeCache[:n-1]
		return nd
	}
	if v := w.rt.pools.nodes.Get(); v != nil {
		return v.(*pforNode)
	}
	return &pforNode{}
}

//lhws:nonblocking
func (w *worker) putNode(nd *pforNode) {
	nd.t = nil
	nd.b = nil
	if len(w.nodeCache) < nodeCacheCap {
		w.nodeCache = append(w.nodeCache, nd)
		return
	}
	w.rt.pools.nodes.Put(nd)
}

//lhws:nonblocking
func (w *worker) getBatch() *pforBatch {
	if n := len(w.batchCache); n > 0 {
		b := w.batchCache[n-1]
		w.batchCache[n-1] = nil
		w.batchCache = w.batchCache[:n-1]
		return b
	}
	if v := w.rt.pools.batches.Get(); v != nil {
		return v.(*pforBatch)
	}
	return &pforBatch{}
}

//lhws:nonblocking
func (w *worker) putBatch(b *pforBatch) {
	b.tasks = nil
	if len(w.batchCache) < batchCacheCap {
		w.batchCache = append(w.batchCache, b)
		return
	}
	w.rt.pools.batches.Put(b)
}

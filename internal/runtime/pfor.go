package runtime

import (
	"sync/atomic"

	"lhws/internal/deque"
)

// Bulk resume injection (Figure 3, lines 7-14). When a worker drains its
// resume inbox it does not push a deque's woken tasks one by one: it
// wraps the whole batch in a pfor tree node — "a parallel-for over the
// resumed vertices" in the paper's terms — and pushes that single item. The tree
// is materialized lazily: whoever pops (or steals) a node splits off its
// left halves as further nodes and executes the right-most task. This
// keeps injection O(1) in the batch size on the hot path and gives
// thieves half-range granularity: stealing a node over [0,n) yields the
// executing task plus a node over [0,n/2) left on top of the thief's
// deque for the next thief.
//
// Splitting order is chosen so the tree is observably equivalent to
// pushing the batch per-task in resume order t_0..t_{n-1}: the executor
// of [lo,hi) pushes [lo,mid), [mid,..), ... bottom-most last and runs
// t_{hi-1}, so owner pops yield t_{n-1}, t_{n-2}, ..., t_0 — exactly the
// LIFO order per-task injection would give (pfor_test.go locks this in).

// pforBatch is the shared header of one injected batch. live counts the
// not-yet-extracted tasks; the extractor that takes it to zero recycles
// the tasks buffer and the header. Extraction writes (nil-ing an entry)
// are ordered before the recycle by the atomic decrement chain.
type pforBatch struct {
	tasks []*task
	live  atomic.Int32
}

// pforNode is one deque item. Every item on a runtime deque is a
// *pforNode — the Chase–Lev cells are atomic.Values, which require one
// consistent concrete type — in one of two shapes:
//
//   - singleton: t non-nil, wrapping one spawned or resumed task; it is
//     the task's own node (task.node), so a spawn takes nothing from a
//     pool and a task is on at most one deque at a time;
//   - range: t nil, the half-open range [lo,hi) of batch b.
//
// Range nodes are recycled through the run's pool; a node is on at most
// one deque and is consumed by whoever pops or steals it.
type pforNode struct {
	t      *task // non-nil: a singleton, no batch
	b      *pforBatch
	lo, hi int32
}

// newTaskNode returns t's own node for the hot spawn/inject path.
// Owner-role access only.
func (w *worker) newTaskNode(t *task) *pforNode {
	nd := &t.node
	nd.t = t
	return nd
}

// newBatchNode wraps one home deque's woken tasks in a batch and returns
// its root node. Owner-role access only. ts must be non-empty; ownership of
// the slice transfers to the batch.
func (w *worker) newBatchNode(ts []*task) *pforNode {
	b := w.getBatch()
	b.tasks = ts
	b.live.Store(int32(len(ts)))
	nd := w.getNode()
	nd.b = b
	nd.lo = 0
	nd.hi = int32(len(ts))
	return nd
}

// resolveItem turns a popped or stolen deque item into the task to run.
// Singletons unwrap directly; a range node is split lazily — left halves
// are pushed back onto the worker's active deque as nodes, and the
// range's last task is extracted and returned. The caller must hold w's
// owner role with w.active installed (thieves call this after adopting
// their new deque, so the split lands on the thief's side — the
// half-range steal).
func (w *worker) resolveItem(it deque.Item) *task {
	nd := it.(*pforNode)
	if t := nd.t; t != nil {
		return t
	}
	b := nd.b
	lo, hi := nd.lo, nd.hi
	w.putNode(nd)
	split := hi-lo > 1
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		left := w.getNode()
		left.b = b
		left.lo = lo
		left.hi = mid
		w.active.q.PushBottom(left)
		lo = mid
	}
	if split {
		w.rt.published()
	}
	t := b.tasks[lo]
	b.tasks[lo] = nil
	if b.live.Add(-1) == 0 {
		ts := b.tasks
		b.tasks = nil
		w.putSlice(ts[:0])
		w.putBatch(b)
	}
	return t
}

package runtime

import (
	"sync/atomic"

	"lhws/internal/deque"
)

// rdeque is a worker-owned deque with the suspension bookkeeping of
// Table 1: a lock-free Chase–Lev deque of tasks plus a suspension counter.
// Its resumed set lives on the owner's inbox (worker.resumed), grouped by
// home deque only when the owner drains it.
//
// Concurrency contract: items are accessed through the lock-free deque
// (owner-side push/pop by whichever goroutine currently holds the owner
// role — the worker loop or the task it is running — and PopTop by any
// thief). Everything else here but the target marker is the owner role's:
// wakers never touch a deque, they publish to the owner's inbox.
type rdeque struct {
	q     *deque.ChaseLev
	owner *worker

	// inReadySet marks membership in the owner's ready list so addReady is
	// O(1) instead of scanning. Guarded by the owner's mu, because it
	// mirrors state of the owner's ready slice.
	inReadySet bool

	// suspendCtr counts the tasks of this deque that suspended and have
	// not been pushed back yet: the suspending task increments it and the
	// owner's drain decrements it when it re-pushes the task, both in the
	// owner role. A woken task still on the inbox therefore keeps the deque
	// from being recycled (see idle). It is atomic only because the
	// watchdog reads it.
	suspendCtr atomic.Int64

	// woken collects this deque's tasks while the owner's drain groups its
	// inbox by home (owner-role access only; nil outside drainResumed).
	woken []*task

	// targetNs is the earliest latency target (UnixNano; 0 = none) of any
	// task spawned onto or suspended from this deque, maintained by
	// noteTarget (CAS-min) and read lock-free by deadline-aware deque
	// selection and steal gating. targetScope remembers which scope set it
	// so a blown target can be shed by canceling that subtree. Both are
	// best-effort: a target may outlive the tasks that carried it until
	// the deque is recycled (resetTarget), which costs at worst a spurious
	// idempotent cancel of an already-finished scope.
	targetNs    atomic.Int64
	targetScope atomic.Pointer[cancelScope]
}

func newRdeque(owner *worker) *rdeque {
	return &rdeque{q: deque.NewChaseLev(), owner: owner}
}

// suspend records that a task belonging to this deque has suspended.
func (d *rdeque) suspend() {
	d.suspendCtr.Add(1)
}

// unsuspend reverses a suspend that never committed — the fast path of an
// operation that found its channel ready after marking the suspension.
// A nil home (a Blocking-mode wait, see Ctx.waitHome) counted nothing.
func (d *rdeque) unsuspend() {
	if d != nil {
		d.suspendCtr.Add(-1)
	}
}

// noteTarget records that work targeting tgt (UnixNano, non-zero) lives
// on this deque, keeping the earliest target. Called from the spawn and
// suspension paths only when the task's scope carries a target, so
// target-free workloads never reach it. The 0→nonzero transition bumps
// the run-wide activeTargets count, which lets the steal path skip the
// time.Now() + EDF scan entirely while no deque anywhere carries a
// target; every transition routes through the CAS here, through
// resetTarget's Swap, or through clearBlownTarget's CAS, so the count is
// exact, not advisory.
func (d *rdeque) noteTarget(tgt int64, s *cancelScope) {
	for {
		cur := d.targetNs.Load()
		if cur != 0 && cur <= tgt {
			return
		}
		if d.targetNs.CompareAndSwap(cur, tgt) {
			d.targetScope.Store(s)
			if cur == 0 {
				d.owner.rt.activeTargets.Add(1)
			}
			return
		}
	}
}

// resetTarget clears target bookkeeping when the deque is recycled for
// an unrelated subtree.
func (d *rdeque) resetTarget() {
	if d.targetNs.Swap(0) != 0 {
		d.owner.rt.activeTargets.Add(-1)
	}
	d.targetScope.Store(nil)
}

// blownTarget reports whether the deque's earliest target has already
// passed (relative to now, UnixNano), returning the scope that set it
// and the target value observed (for clearBlownTarget).
func (d *rdeque) blownTarget(now int64) (*cancelScope, int64, bool) {
	tgt := d.targetNs.Load()
	if tgt == 0 || now <= tgt {
		return nil, 0, false
	}
	return d.targetScope.Load(), tgt, true
}

// clearBlownTarget retires a stale target marker observed by blownTarget:
// the subtree that set it is already canceled or finished, so the deque's
// remaining work is unrelated and thieves must not keep treating it as
// blown. The CAS yields to any concurrent noteTarget that installed a
// different target. Thieves call it, so the run comes from the caller:
// d.owner is the owner role's to write, and recycling clears it.
func (d *rdeque) clearBlownTarget(rt *runtimeState, tgt int64) {
	if d.targetNs.CompareAndSwap(tgt, 0) {
		d.targetScope.Store(nil)
		rt.activeTargets.Add(-1)
	}
}

// idle reports whether the deque holds no items and no suspended or
// woken-but-not-re-pushed tasks — i.e. it can be dropped. Owner role only.
func (d *rdeque) idle() bool {
	return d.suspendCtr.Load() == 0 && d.q.Empty()
}

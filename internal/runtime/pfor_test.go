package runtime

import (
	"testing"

	"lhws/internal/rng"
)

// Tests for pfor-tree bulk resume injection (pfor.go): the lazy split
// must be observably equivalent to per-task injection for the owner, give
// thieves half-range granularity, and recycle its batch bookkeeping once
// every task is extracted.

// harnessWorkers builds n workers sharing one runtimeState, each with an
// adopted active deque, without starting worker loops — the test
// goroutine plays every owner role serially, which is legal because the
// owner role is a discipline, not a goroutine identity.
func harnessWorkers(n int) []*worker {
	rt := &runtimeState{cfg: Config{Workers: n}}
	rt.shards = make([]statShard, n)
	rt.workers = make([]*worker, n)
	seeds := rng.New(1)
	for i := range rt.workers {
		rt.workers[i] = newWorker(rt, i, seeds.Split())
		rt.workers[i].adoptDeque(newRdeque(rt.workers[i]))
	}
	return rt.workers
}

// drainOwner pops the worker's active deque dry, resolving every item.
func drainOwner(w *worker) []*task {
	var got []*task
	for {
		it, ok := w.active.q.PopBottom()
		if !ok {
			return got
		}
		got = append(got, w.resolveItem(it))
	}
}

// TestPforSplitOrderMatchesPerTaskInjection locks in the equivalence the
// batch push relies on: popping a batch node of t_0..t_{n-1} through
// resolveItem yields exactly the order that pushing each task as its own
// item would have yielded (t_{n-1} down to t_0). Odd, even, power-of-two,
// and single-task batch sizes all go through the same check.
func TestPforSplitOrderMatchesPerTaskInjection(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 8, 9, 32, 33} {
		ws := harnessWorkers(2)
		tasks := make([]*task, n)
		for i := range tasks {
			tasks[i] = &task{}
		}

		// Reference: per-task injection in resume order, then drain.
		ref := ws[0]
		for _, tk := range tasks {
			ref.active.q.PushBottom(ref.newTaskNode(tk))
		}
		want := drainOwner(ref)

		// Batch: one push of a pfor node over the same tasks.
		bw := ws[1]
		bw.active.q.PushBottom(bw.newBatchNode(append([]*task(nil), tasks...)))
		got := drainOwner(bw)

		if len(got) != n || len(want) != n {
			t.Fatalf("n=%d: drained %d tasks via batch, %d via per-task, want %d", n, len(got), len(want), n)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("n=%d: pop %d: batch injection yielded task %d, per-task yielded task %d",
					n, i, taskIndex(tasks, got[i]), taskIndex(tasks, want[i]))
			}
		}
	}
}

func taskIndex(tasks []*task, tk *task) int {
	for i, c := range tasks {
		if c == tk {
			return i
		}
	}
	return -1
}

// TestPforStealLeavesHalfRange checks the thief-side contract: stealing a
// batch node over [0,n) and resolving it on the thief's fresh deque must
// leave a node over [0,n/2) as the thief's topmost item — the half range
// the next thief can take — with the thief executing t_{n-1}.
func TestPforStealLeavesHalfRange(t *testing.T) {
	const n = 8
	ws := harnessWorkers(2)
	victim, thief := ws[0], ws[1]
	tasks := make([]*task, n)
	for i := range tasks {
		tasks[i] = &task{}
	}
	victim.active.q.PushBottom(victim.newBatchNode(append([]*task(nil), tasks...)))

	it, ok := victim.active.q.PopTop()
	if !ok {
		t.Fatal("steal from victim failed")
	}
	got := thief.resolveItem(it)
	if got != tasks[n-1] {
		t.Fatalf("thief executes task %d, want %d (the range's last task)", taskIndex(tasks, got), n-1)
	}
	if left, ok := victim.active.q.PopBottom(); ok {
		t.Fatalf("victim deque still holds %v after the batch node was stolen", left)
	}

	top, ok := thief.active.q.PopTop()
	if !ok {
		t.Fatal("thief deque empty after resolving a stolen batch node")
	}
	nd := top.(*pforNode)
	if nd.t != nil || nd.lo != 0 || nd.hi != n/2 {
		t.Fatalf("thief's topmost item is [%d,%d) (singleton=%v), want the half range [0,%d)", nd.lo, nd.hi, nd.t != nil, n/2)
	}
	// Put it back and drain: every remaining task must surface exactly once.
	thief.active.q.PushBottom(top)
	rest := drainOwner(thief)
	seen := map[*task]bool{got: true}
	for _, tk := range rest {
		if seen[tk] {
			t.Fatalf("task %d extracted twice", taskIndex(tasks, tk))
		}
		seen[tk] = true
	}
	if len(seen) != n {
		t.Fatalf("extracted %d distinct tasks, want %d", len(seen), n)
	}
}

// TestPforBatchRecycledAfterLastExtract checks the live-counter release:
// the extractor that takes the batch's live count to zero returns the
// batch's task slice to the worker's slice cache with every task entry
// nil'd first (the header goes to the run's pool).
func TestPforBatchRecycledAfterLastExtract(t *testing.T) {
	const n = 5
	ws := harnessWorkers(1)
	w := ws[0]
	tasks := make([]*task, n)
	for i := range tasks {
		tasks[i] = &task{}
	}
	w.active.q.PushBottom(w.newBatchNode(append([]*task(nil), tasks...)))
	if got := len(drainOwner(w)); got != n {
		t.Fatalf("drained %d tasks, want %d", got, n)
	}
	if len(w.sliceCache) != 1 {
		t.Fatalf("batch task slice not recycled: sliceCache has %d entries, want 1", len(w.sliceCache))
	}
	if s := w.sliceCache[0]; len(s) != 0 || cap(s) < n {
		t.Fatalf("recycled slice has len=%d cap=%d, want empty with cap>=%d", len(s), cap(s), n)
	}
}

// TestDrainGroupsByHome drives one drain of a resume inbox by hand: wakes
// for two home deques — the active one, and a retired one abandoned while
// its tasks were suspended — interleaved with one join woken on the slow
// path of continueOn. Each home must get exactly one item, its woken tasks
// in wake order; the retired home must go onto the ready list; the join
// must be a singleton pushed last onto the active deque; and both
// suspension counters must be back at 0. Before the drain, a deque whose
// only tasks are woken but still on the inbox must survive retireActive.
func TestDrainGroupsByHome(t *testing.T) {
	w := harnessWorkers(1)[0]
	suspendOn := func(home *rdeque) *waiter {
		tk := w.acquireTask(funcRunner(func(*Ctx) {}))
		tk.w = w
		if home != nil {
			home.suspend()
		}
		return (&Ctx{t: tk}).beginWait("drain-test", KindOther, home, nil)
	}

	retired := w.active
	r1, r2 := suspendOn(retired), suspendOn(retired)
	w.retireActive()
	if w.active != nil || w.live != 1 {
		t.Fatalf("retireActive dropped a deque with suspended tasks (active=%p live=%d)", w.active, w.live)
	}
	w.adoptDeque(w.getRdeque())
	active := w.active
	a1, a2 := suspendOn(active), suspendOn(active)
	j := suspendOn(nil)
	if !j.join {
		t.Fatal("a wait with no home in LatencyHiding mode is not a join")
	}

	r1.wake(nil)
	a1.wake(nil)
	j.refs.Add(1) // the completer's event reference, consumed by continueOn
	if j.continueOn(w) {
		t.Fatal("continueOn pushed a join waiter whose task has not yielded")
	}
	r2.wake(nil)
	a2.wake(nil)
	if n := len(w.resumed); n != 5 || !w.resumedPending.Load() {
		t.Fatalf("inbox holds %d wakes (pending %v), want 5", n, w.resumedPending.Load())
	}

	// Every task of the active deque is woken and its items are still on
	// the inbox: the deque must not be recycled.
	live := w.live
	w.retireActive()
	if w.live != live || active.owner != w {
		t.Fatal("retireActive recycled a deque whose woken tasks are still on the inbox")
	}
	w.addReady(active)
	if !w.trySwitch() || w.active != active {
		t.Fatal("could not switch back to the kept deque")
	}

	w.drainResumed()

	if n := len(w.resumed); n != 0 || w.resumedPending.Load() {
		t.Errorf("inbox holds %d wakes after the drain (pending %v), want none", n, w.resumedPending.Load())
	}
	if !retired.inReadySet || len(w.ready) != 1 || w.ready[0] != retired {
		t.Errorf("the retired home is not the one ready deque (ready=%v)", w.ready)
	}
	if n := active.q.Len(); n != 2 {
		t.Fatalf("active deque holds %d items, want the batch and the join", n)
	}
	it, _ := active.q.PopBottom()
	if nd := it.(*pforNode); nd.t != j.t {
		t.Error("the bottom item of the active deque is not the join's singleton")
	}
	checkBatch := func(name string, d *rdeque, want ...*waiter) {
		t.Helper()
		if n := d.q.Len(); n != 1 {
			t.Fatalf("%s home holds %d items, want one batch", name, n)
		}
		it, _ := d.q.PopBottom()
		nd := it.(*pforNode)
		if nd.t != nil || nd.b == nil || int(nd.hi-nd.lo) != len(want) {
			t.Fatalf("%s home's item is not a batch of %d", name, len(want))
		}
		for i, wt := range want {
			if nd.b.tasks[i] != wt.t {
				t.Errorf("%s batch entry %d is not the task woken %d-th", name, i, i+1)
			}
		}
	}
	checkBatch("active", active, a1, a2)
	checkBatch("retired", retired, r1, r2)
	// Both deques are empty now, so idle reads their suspension counters.
	if !retired.idle() || !active.idle() {
		t.Error("a suspension counter is not back at 0 after the drain")
	}
	if b, n := w.stat.resumeBatches.Load(), w.stat.resumeBatchTasks.Load(); b != 2 || n != 4 {
		t.Errorf("resumeBatches=%d resumeBatchTasks=%d, want 2 and 4", b, n)
	}
}

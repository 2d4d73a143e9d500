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

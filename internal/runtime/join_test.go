package runtime

import (
	"errors"
	goruntime "runtime"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// Tests for join waits as light edges (Future.AwaitErr → waiter.continueOn):
// an Await that cannot run its child as a call yields without pinning a
// deque, and the child's completer pushes the awaiter onto its own active
// deque, or — when the awaiter has not yielded yet, the wait is aborted,
// or faults are injected — onto the resume inbox of the worker the awaiter
// yielded to.

// spawnFib is fib over Spawn/Await: the join is on a *Future, the path
// the forkjoin benchmark takes.
func spawnFib(c *Ctx, n int, out *int) {
	if n < 2 {
		*out = n
		return
	}
	var a, b int
	fut := c.Spawn(func(cc *Ctx) { spawnFib(cc, n-1, &a) })
	spawnFib(c, n-2, &b)
	fut.Await(c)
	*out = a + b
}

// TestJoinWaitsPinNoDeque is Lemma 7 with U = 0: a fork-join program has
// no heavy edge, so no worker ever holds a second deque and no deque is
// ever switched to, however many joins wait on stolen children.
func TestJoinWaitsPinNoDeque(t *testing.T) {
	for _, p := range []int{2, 4} {
		waited := false
		for run := 0; run < 20 && !waited; run++ {
			var got int
			st, err := Run(benchConfig(p), func(c *Ctx) { spawnFib(c, 20, &got) })
			if err != nil {
				t.Fatalf("P=%d: Run: %v", p, err)
			}
			if got != 6765 {
				t.Fatalf("P=%d: fib(20) = %d, want 6765", p, got)
			}
			if st.MaxDequesPerWorker != 1 || st.Switches != 0 {
				t.Fatalf("P=%d: MaxDequesPerWorker=%d Switches=%d (Suspensions=%d Steals=%d), want 1 and 0",
					p, st.MaxDequesPerWorker, st.Switches, st.Suspensions, st.Steals)
			}
			waited = st.Suspensions > 0
		}
		if !waited {
			t.Errorf("P=%d: no join waited in 20 runs; the join-wait path went untested", p)
		}
	}
}

// waiterCount counts f's registered waiters.
func waiterCount(f *Future) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for wt := f.w0; wt != nil; wt = wt.fnext {
		n++
	}
	return n
}

// TestJoinCompletesBeforeYield: the child returns the moment its awaiter
// has registered, so its completion often lands before the awaiter's
// coroutine has yielded. The completer must not push such an awaiter (a
// second switch-in into a running coroutine panics inside iter.Pull); it
// goes onto its worker's resume inbox instead. Every body runs exactly once.
func TestJoinCompletesBeforeYield(t *testing.T) {
	const rounds = 300
	var bodies, resumes atomic.Int64
	st, err := Run(benchConfig(2), func(c *Ctx) {
		for i := 0; i < rounds; i++ {
			fut := c.Spawn(func(cc *Ctx) {
				bodies.Add(1)
				for waiterCount(cc.t.fut) == 0 {
					goruntime.Gosched()
				}
			})
			// The sibling below the child keeps the join from running the
			// child as a call; the other worker steals the child.
			c.Spawn(func(*Ctx) { bodies.Add(1) })
			for c.t.w.active.q.Len() > 1 {
				goruntime.Gosched()
			}
			fut.Await(c)
			resumes.Add(1)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if bodies.Load() != 2*rounds || resumes.Load() != rounds {
		t.Errorf("bodies=%d resumes=%d, want %d and %d", bodies.Load(), resumes.Load(), 2*rounds, rounds)
	}
	if st.TasksSpawned != 2*rounds+1 {
		t.Errorf("TasksSpawned = %d, want %d", st.TasksSpawned, 2*rounds+1)
	}
}

// TestJoinWaitCanceled: an awaiter whose scope is canceled while its
// child is still running is aborted — the slow path, since an abort never
// pushes onto the canceler's deque — and unwinds out of its Await. The
// child, under a live scope, finishes normally.
func TestJoinWaitCanceled(t *testing.T) {
	for _, p := range []int{1, 2} {
		var pastAwait atomic.Bool
		var awaiterErr, childErr error
		st, err := Run(benchConfig(p), func(c *Ctx) {
			child := c.Spawn(func(cc *Ctx) { cc.Latency(100 * time.Millisecond) })
			sub, cancel := c.WithCancel()
			time.AfterFunc(10*time.Millisecond, cancel)
			awaiterErr = sub.Spawn(func(ac *Ctx) {
				ac.Spawn(benchLeaf) // the child is not at the bottom: the join waits
				child.Await(ac)
				pastAwait.Store(true)
			}).AwaitErr(c)
			childErr = child.AwaitErr(c)
		})
		if err != nil {
			t.Fatalf("P=%d: Run: %v", p, err)
		}
		if !errors.Is(awaiterErr, ErrCanceled) || pastAwait.Load() {
			t.Errorf("P=%d: awaiter AwaitErr = %v, ran past its Await = %v; want ErrCanceled, false", p, awaiterErr, pastAwait.Load())
		}
		if childErr != nil {
			t.Errorf("P=%d: child AwaitErr = %v, want nil", p, childErr)
		}
		if st.TasksCanceled != 1 {
			t.Errorf("P=%d: TasksCanceled = %d, want 1 (the awaiter)", p, st.TasksCanceled)
		}
	}
}

// TestJoinChildPanics: a child that panics while its parent waits on it
// fails the run with ErrTaskPanic, and the parent unwinds instead of
// running past its Await.
func TestJoinChildPanics(t *testing.T) {
	for _, p := range []int{1, 2} {
		var pastAwait atomic.Bool
		st, err := Run(benchConfig(p), func(c *Ctx) {
			fut := c.Spawn(func(cc *Ctx) {
				cc.Latency(time.Millisecond)
				panic("boom")
			})
			c.Spawn(benchLeaf) // the child is not at the bottom: the join waits
			fut.Await(c)
			pastAwait.Store(true)
		})
		if !errors.Is(err, ErrTaskPanic) {
			t.Fatalf("P=%d: Run err = %v, want ErrTaskPanic", p, err)
		}
		if pastAwait.Load() {
			t.Errorf("P=%d: the parent ran past the Await of a panicked child", p)
		}
		if st.TasksPanicked != 1 || st.TasksCanceled != 1 {
			t.Errorf("P=%d: TasksPanicked=%d TasksCanceled=%d, want 1 (the child) and 1 (the root)", p, st.TasksPanicked, st.TasksCanceled)
		}
	}
}

// TestJoinTwoAwaiters: two tasks wait on one future; the child returns
// only once both have registered, so one completion continues both, and
// each resumes exactly once.
func TestJoinTwoAwaiters(t *testing.T) {
	for _, p := range []int{1, 2, 4} {
		for round := 0; round < 20; round++ {
			var resumes [2]atomic.Int64
			_, err := Run(benchConfig(p), func(c *Ctx) {
				child := c.Spawn(func(cc *Ctx) {
					for waiterCount(cc.t.fut) < 2 {
						cc.Latency(100 * time.Microsecond)
					}
				})
				var aws [2]*Future
				for i := range aws {
					aws[i] = c.Spawn(func(ac *Ctx) {
						ac.Spawn(benchLeaf) // the child is not at the bottom: the join waits
						child.Await(ac)
						resumes[i].Add(1)
					})
				}
				for _, aw := range aws {
					aw.Await(c)
				}
			})
			if err != nil {
				t.Fatalf("P=%d round %d: Run: %v", p, round, err)
			}
			if resumes[0].Load() != 1 || resumes[1].Load() != 1 {
				t.Fatalf("P=%d round %d: resumes = %d, %d; want 1 each", p, round, resumes[0].Load(), resumes[1].Load())
			}
		}
	}
}

// TestRunWaitsForDetachedTasks: Run ends when the run's spawns and
// completions balance, summed over the workers' shards. A root that
// returns at once, leaving never-awaited spawn chains that suspend on
// Latency below it, must not end the run early: every body runs before
// Run returns, and TasksSpawned counts exactly the bodies run.
func TestRunWaitsForDetachedTasks(t *testing.T) {
	const chains, depth = 4, 5
	for _, p := range []int{1, 2, 4} {
		var bodies atomic.Int64
		var chain func(c *Ctx, d int)
		chain = func(c *Ctx, d int) {
			bodies.Add(1)
			if d == 0 {
				return
			}
			c.Latency(time.Millisecond)
			for i := 0; i < 2; i++ {
				c.Spawn(func(cc *Ctx) { chain(cc, d-1) })
			}
		}
		st, err := Run(benchConfig(p), func(c *Ctx) {
			bodies.Add(1)
			for i := 0; i < chains; i++ {
				c.Spawn(func(cc *Ctx) { chain(cc, depth) })
			}
		})
		if err != nil {
			t.Fatalf("P=%d: Run: %v", p, err)
		}
		want := int64(1 + chains*(1<<(depth+1)-1))
		if got := bodies.Load(); got != want || st.TasksSpawned != got {
			t.Errorf("P=%d: bodies run = %d, TasksSpawned = %d; want %d each", p, got, st.TasksSpawned, want)
		}
	}
}

// TestFinishedNeverEarly: finished must not report the end of the run
// while a task is live, however spawns and completions on other shards
// interleave with its two sums. A live parent is counted on the last
// shard while another goroutine spawns children on the first that finish
// at once (a spawn, then its completion); finished, polled meanwhile, must
// stay false. The shard count stretches the gap between the two sums.
func TestFinishedNeverEarly(t *testing.T) {
	rt := &runtimeState{shards: make([]statShard, 64)}
	rt.shards[len(rt.shards)-1].tasksSpawned.Add(1) // the live parent
	var stop atomic.Bool
	spawned := make(chan struct{})
	go func() {
		defer close(spawned)
		s := &rt.shards[0]
		for !stop.Load() {
			s.tasksSpawned.Add(1)
			s.tasksDone.Add(1)
		}
	}()
	early := 0
	for start := time.Now(); time.Since(start) < 200*time.Millisecond; {
		for i := 0; i < 1000; i++ {
			if rt.finished() {
				early++
			}
		}
	}
	stop.Store(true)
	<-spawned
	if early > 0 {
		t.Fatalf("finished() reported the run over %d times while its parent was live", early)
	}
}

// TestFutureSize guards the spawn record's size class: a Value[int] —
// Future, body and result — fits 64 bytes, one allocation per
// SpawnValue. A field added to Future or Value fails here instead of
// moving every spawn into the next size class.
func TestFutureSize(t *testing.T) {
	if got := unsafe.Sizeof(Value[int]{}); got > 64 {
		t.Fatalf("unsafe.Sizeof(Value[int]{}) = %d, want <= 64", got)
	}
}

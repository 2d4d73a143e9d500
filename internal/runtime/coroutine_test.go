package runtime

import (
	goruntime "runtime"
	"sync/atomic"
	"testing"
	"time"
)

// Tests for the task shell's coroutine (task.main, task.switchIn): it is
// created by whichever worker first switches into the shell, may be
// resumed by any other, and is stopped by Run wherever the shell ended up.

// TestCoroutinesStoppedAfterRun: every shell coroutine a run creates ends
// when Run returns — including the shells that overflowed taskCache into
// the run's pool and were then dropped from it by the GC, which no free
// list can reach any more. A 1 000-wide Latency fan-out holds 1 000 shells
// open at once, far past two workers' free lists; the two GCs inside the
// run empty the pool.
func TestCoroutinesStoppedAfterRun(t *testing.T) {
	base := goruntime.NumGoroutine()
	for round := 0; round < 3; round++ {
		_, err := Run(Config{Workers: 2, Seed: uint64(round + 1)}, func(c *Ctx) {
			futs := make([]*Future, 1000)
			for i := range futs {
				futs[i] = c.Spawn(func(cc *Ctx) { cc.Latency(time.Millisecond) })
			}
			for _, f := range futs {
				f.Await(c)
			}
			goruntime.GC()
			goruntime.GC()
		})
		if err != nil {
			t.Fatalf("round %d: Run: %v", round, err)
		}
	}
	waitGoroutines(t, base+3)
}

// TestCoroutineResumedOnAnotherWorker: a task's coroutine, created by the
// worker goroutine that first switched into it, is switched back in by
// another worker goroutine after a suspension — a resumed batch is split
// and stolen like any other deque item. At P = 4 a fan-out of Latency
// leaves, each spinning briefly after its wake, spreads over the workers;
// the root first waits until its first child is stolen, so the fan-out
// starts with a thief already running. Across the migration every body
// runs exactly once, and every switch is accounted for: TasksRun is one
// per spawned life not run inline, plus one per resumption.
func TestCoroutineResumedOnAnotherWorker(t *testing.T) {
	const n = 512
	migrated := false
	for attempt := 0; attempt < 20 && !migrated; attempt++ {
		var runs [n]atomic.Int32
		var moves, spins atomic.Int64
		st, err := Run(Config{Workers: 4, Seed: uint64(attempt + 1)}, func(c *Ctx) {
			futs := make([]*Future, n)
			leaf := func(i int) func(*Ctx) {
				return func(cc *Ctx) {
					runs[i].Add(1)
					before := cc.Worker()
					cc.Latency(200 * time.Microsecond)
					if cc.Worker() != before {
						moves.Add(1)
					}
					x := uint64(i) | 1
					for k := 0; k < 256; k++ { // a little work to steal around
						x ^= x << 13
						x ^= x >> 7
						x ^= x << 17
					}
					spins.Add(int64(x & 1))
				}
			}
			futs[0] = c.Spawn(leaf(0))
			for c.t.w.active.q.Len() > 0 { // until another worker steals it
				goruntime.Gosched()
			}
			for i := 1; i < n; i++ {
				futs[i] = c.Spawn(leaf(i))
			}
			for _, f := range futs {
				f.Await(c)
			}
		})
		if err != nil {
			t.Fatalf("attempt %d: Run: %v", attempt, err)
		}
		for i := range runs {
			if got := runs[i].Load(); got != 1 {
				t.Fatalf("attempt %d: body %d ran %d times, want 1", attempt, i, got)
			}
		}
		if want := st.TasksSpawned + st.Suspensions - st.InlineJoins; st.TasksRun != want {
			t.Fatalf("attempt %d: TasksRun = %d, want spawns %d + resumptions %d - inline joins %d = %d",
				attempt, st.TasksRun, st.TasksSpawned, st.Suspensions, st.InlineJoins, want)
		}
		if st.Steals == 0 {
			t.Fatalf("attempt %d: no steals at P = 4", attempt)
		}
		t.Logf("attempt %d: %d of %d leaves resumed on another worker", attempt, moves.Load(), n)
		migrated = moves.Load() > 0
	}
	if !migrated {
		t.Fatal("no task ever resumed on a worker other than the one it suspended on")
	}
}

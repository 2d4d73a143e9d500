package runtime

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestEmptyRoot: a root that does nothing still completes cleanly.
func TestEmptyRoot(t *testing.T) {
	for _, m := range modes() {
		st, err := Run(Config{Workers: 8, Mode: m}, func(c *Ctx) {})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if st.TasksRun < 1 {
			t.Errorf("%v: root not counted", m)
		}
	}
}

// TestSequentialRuns: runtimes are single-use but the package supports any
// number of consecutive Run invocations.
func TestSequentialRuns(t *testing.T) {
	var total atomic.Int64
	for i := 0; i < 10; i++ {
		_, err := Run(Config{Workers: 2, Mode: LatencyHiding, Seed: uint64(i)}, func(c *Ctx) {
			f := c.Spawn(func(cc *Ctx) { total.Add(1) })
			f.Await(c)
			total.Add(1)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if total.Load() != 20 {
		t.Fatalf("total = %d, want 20", total.Load())
	}
}

// TestDeepSpawnChain: a long chain of dependent spawns (each task spawns
// the next and awaits it) exercises deep suspension nesting without
// blowing goroutine stacks.
func TestDeepSpawnChain(t *testing.T) {
	const depth = 300
	var reached atomic.Int64
	var rec func(c *Ctx, d int)
	rec = func(c *Ctx, d int) {
		reached.Add(1)
		if d == 0 {
			return
		}
		f := c.Spawn(func(cc *Ctx) { rec(cc, d-1) })
		f.Await(c)
	}
	_, err := Run(Config{Workers: 2, Mode: LatencyHiding}, func(c *Ctx) {
		rec(c, depth)
	})
	if err != nil {
		t.Fatal(err)
	}
	if reached.Load() != depth+1 {
		t.Fatalf("reached %d, want %d", reached.Load(), depth+1)
	}
}

// TestZeroLatency: Latency(0) must be a cheap no-op-ish suspension that
// still resumes correctly.
func TestZeroLatency(t *testing.T) {
	for _, m := range modes() {
		var after atomic.Bool
		_, err := Run(Config{Workers: 1, Mode: m}, func(c *Ctx) {
			c.Latency(0)
			after.Store(true)
		})
		if err != nil {
			t.Fatal(err)
		}
		if !after.Load() {
			t.Fatalf("%v: continuation lost", m)
		}
	}
}

// TestMixedPrimitives: futures, channels, parallel-for, and latency all
// composed in one program.
func TestMixedPrimitives(t *testing.T) {
	for _, m := range modes() {
		var sum atomic.Int64
		_, err := Run(Config{Workers: 3, Mode: m}, func(c *Ctx) {
			ch := NewChan[int64](4)
			producer := c.Spawn(func(cc *Ctx) {
				For(cc, 0, 20, 4, func(ccc *Ctx, i int) {
					ccc.Latency(time.Millisecond / 2)
					ch.Send(ccc, int64(i))
				})
			})
			var consumed int64
			for i := 0; i < 20; i++ {
				consumed += ch.Recv(c)
			}
			fold := SpawnValue(c, func(cc *Ctx) int64 {
				return MapReduce(cc, 0, 10, 0,
					func(ccc *Ctx, i int) int64 { return int64(i) },
					func(a, b int64) int64 { return a + b })
			})
			producer.Await(c)
			sum.Store(consumed + fold.Await(c))
		})
		if err != nil {
			t.Fatal(err)
		}
		want := int64(19*20/2 + 45)
		if sum.Load() != want {
			t.Fatalf("%v: sum = %d, want %d", m, sum.Load(), want)
		}
	}
}

// TestAwaitFromManyTasks: several tasks awaiting one future all resume.
func TestAwaitFromManyTasks(t *testing.T) {
	var resumed atomic.Int64
	_, err := Run(Config{Workers: 3, Mode: LatencyHiding}, func(c *Ctx) {
		slow := c.Spawn(func(cc *Ctx) { cc.Latency(5 * time.Millisecond) })
		var waiters []*Future
		for i := 0; i < 10; i++ {
			waiters = append(waiters, c.Spawn(func(cc *Ctx) {
				slow.Await(cc)
				resumed.Add(1)
			}))
		}
		for _, w := range waiters {
			w.Await(c)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Load() != 10 {
		t.Fatalf("resumed %d of 10 waiters", resumed.Load())
	}
}

// TestStatsConsistency: spawned tasks and run slices relate sensibly.
func TestStatsConsistency(t *testing.T) {
	st, err := Run(Config{Workers: 2, Mode: LatencyHiding}, func(c *Ctx) {
		var futs []*Future
		for i := 0; i < 30; i++ {
			futs = append(futs, c.Spawn(func(cc *Ctx) { cc.Latency(time.Millisecond) }))
		}
		for _, f := range futs {
			f.Await(c)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.TasksSpawned != 31 { // root + 30
		t.Errorf("TasksSpawned = %d, want 31", st.TasksSpawned)
	}
	// Every task is switched into or run as a call by its joiner, and
	// every suspension implies an extra switch: switches + calls ≥ spawned.
	if st.TasksRun+st.InlineJoins < st.TasksSpawned {
		t.Errorf("TasksRun %d + InlineJoins %d < TasksSpawned %d", st.TasksRun, st.InlineJoins, st.TasksSpawned)
	}
	if st.Steals > st.StealAttempts {
		t.Errorf("Steals %d > StealAttempts %d", st.Steals, st.StealAttempts)
	}
	if st.Wall <= 0 {
		t.Error("Wall not measured")
	}
}

// TestWorkersScaleCompute: with GOMAXPROCS raised by TestMain, wall time
// for pure compute should not degrade with more workers.
func TestWorkersScaleCompute(t *testing.T) {
	run := func(p int) time.Duration {
		st, err := Run(Config{Workers: p, Mode: LatencyHiding}, func(c *Ctx) {
			For(c, 0, 64, 1, func(cc *Ctx, i int) { busyWork(200000) })
		})
		if err != nil {
			t.Fatal(err)
		}
		return st.Wall
	}
	w1 := run(1)
	w4 := run(4)
	// On a single hardware thread parallel speedup is not expected; just
	// guard against pathological slowdown from scheduling overhead.
	if w4 > 3*w1 {
		t.Errorf("4 workers (%v) much slower than 1 (%v)", w4, w1)
	}
}

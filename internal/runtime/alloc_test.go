package runtime

import (
	"math"
	goruntime "runtime"
	"testing"
	"time"
)

// Allocation-regression gates for the pooled hot paths. These are the
// contract the pool layer exists to uphold: once the free lists and pools
// are warm, a scheduling quantum costs no heap allocation beyond the
// user-visible Future of a Spawn, or the one spawn record of a SpawnValue,
// For split or MapReduce split — inline join, suspension, resume
// injection, pfor split, and shell recycling all run on recycled objects.
// testing.AllocsPerRun pins GOMAXPROCS to 1 for the measured runs, which
// the cooperative handoff protocol tolerates (every wait below is a
// channel handoff or a spin that yields the processor).

// TestAllocsStolenChildAwaitSteadyState is the spawn/await quantum of
// TestAllocsPublicSpawnSteadyState with the child forced onto another
// worker, so the join is a real suspension: steal, fresh deque, waiter,
// epoch claim, resumed set, re-injection and the grant that resumes the
// parent — all on recycled objects, leaving only the Future. The child
// holds its completion back until the parent has registered as the
// future's waiter, which makes every measured round take the suspension
// path.
//
// Every round is also a full park → wake → steal cycle, twice over: the
// parent spawns only once the other worker has parked, so the spawn's wake
// is what brings the thief; and while the child runs, the parent's worker
// has nothing and parks, so the completion's owner wake is what brings the
// parent back. Blocking on the semaphore, the token and the re-check sweep
// allocate nothing.
func TestAllocsStolenChildAwaitSteadyState(t *testing.T) {
	var host *task
	stolenChild := func(cc *Ctx) {
		if cc.t == host {
			t.Error("child ran on the parent's goroutine; the gate needs it stolen")
			return
		}
		fut := cc.t.fut
		for {
			fut.mu.Lock()
			parked := fut.w0 != nil
			fut.mu.Unlock()
			if parked {
				return
			}
			goruntime.Gosched()
		}
	}
	st, err := Run(benchConfig(2), func(c *Ctx) {
		host = c.t
		round := func() {
			// Until the other worker has parked — whichever that is now:
			// the resumed parent is itself stealable.
			for thief := c.t.rt.workers[1-c.t.w.id]; !thief.parked.Load(); {
				goruntime.Gosched()
			}
			fut := c.Spawn(stolenChild)
			for c.t.w.active.q.Len() > 0 { // until the other worker steals it
				goruntime.Gosched()
			}
			if werr := fut.AwaitErr(c); werr != nil {
				t.Errorf("await: %v", werr)
			}
		}
		// Shells are acquired here and released on the thief, so steady
		// state begins only once the thief's local list is full and its
		// releases overflow into the run's pool.
		for i := 0; i < 2*taskCacheCap; i++ {
			round()
		}
		if avg := testing.AllocsPerRun(200, round); avg > 1 && !raceDetectorEnabled {
			t.Errorf("spawn/await of a stolen child allocates %.2f objects/op at steady state, want <= 1 (the Future)", avg)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st.InlineJoins != 0 || st.Suspensions < 200 {
		t.Errorf("InlineJoins=%d Suspensions=%d: the rounds did not take the suspension path", st.InlineJoins, st.Suspensions)
	}
	if st.Parks < 200 || st.WorkerWakes < 200 || st.Steals < 200 {
		t.Errorf("Parks=%d WorkerWakes=%d Steals=%d: the rounds did not go through park, wake and steal", st.Parks, st.WorkerWakes, st.Steals)
	}
}

// TestAllocsLatencySteadyState gates the timer suspension: a Latency
// round — suspend, wheel fire, resume — runs on a recycled waiter whose
// embedded timer is re-armed in place, and registers on the scope's
// intrusive wait list, so it allocates nothing once warm. The watchdog is
// armed, as in every benchmark run.
func TestAllocsLatencySteadyState(t *testing.T) {
	cfg := benchConfig(1)
	cfg.StallTimeout = 10 * time.Second
	st, err := Run(cfg, func(c *Ctx) {
		round := func() { c.Latency(time.Microsecond) }
		for i := 0; i < 64; i++ {
			round()
		}
		if avg := testing.AllocsPerRun(200, round); avg != 0 && !raceDetectorEnabled {
			t.Errorf("Latency round allocates %.2f objects/op at steady state, want 0", avg)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st.Suspensions < 264 {
		t.Errorf("Suspensions = %d: the rounds did not suspend", st.Suspensions)
	}
}

// TestAllocsLoadSignalPendingResumes gates the admission path's load
// sample at zero allocations while a resumed task is waiting for its
// owner — the state in which the sample used to copy the registered
// deques into a fresh slice (≈0.5 allocations per request on the serve
// benchmark).
func TestAllocsLoadSignalPendingResumes(t *testing.T) {
	_, err := Run(benchConfig(1), func(c *Ctx) {
		ch := NewChan[int](0)
		child := c.Spawn(func(cc *Ctx) { ch.Recv(cc) })
		c.Latency(time.Millisecond) // the one worker runs the child into its Recv meanwhile
		ch.Send(c, 1)               // resumes the child; this worker has not drained it yet
		if !c.t.w.resumedPending.Load() {
			t.Error("no resumed task pending; the gate would measure nothing")
		}
		var ld Load
		if avg := testing.AllocsPerRun(200, func() { ld = c.LoadSignal() }); avg != 0 {
			t.Errorf("LoadSignal with a pending resume allocates %.2f objects/op, want 0", avg)
		}
		if ld.ReadyTasks != 1 {
			t.Errorf("ReadyTasks = %d, want the one resumed task", ld.ReadyTasks)
		}
		child.Await(c)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestAllocsPublicSpawnSteadyState gates the public Spawn/Await quantum at
// exactly its documented cost: the one user-visible *Future per Spawn
// (never pooled — it may outlive the await), and nothing else.
func TestAllocsPublicSpawnSteadyState(t *testing.T) {
	_, err := Run(benchConfig(1), func(c *Ctx) {
		for i := 0; i < 64; i++ {
			c.Spawn(benchLeaf).Await(c)
		}
		if avg := testing.AllocsPerRun(200, func() {
			c.Spawn(benchLeaf).Await(c)
		}); avg > 1 {
			t.Errorf("public Spawn/Await allocates %.2f objects/op at steady state, want <= 1 (the Future)", avg)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestAllocsBlockingSteadyState gates Blocking mode's waits, which run on
// the same pooled waiters as latency-hiding suspensions and so register
// with their scope without allocating: a buffered Send + Recv costs
// nothing, and a Spawn + Await — the join helping the child through as
// a call — costs only the Future. A Chan is one allocation in any mode.
func TestAllocsBlockingSteadyState(t *testing.T) {
	cfg := benchConfig(1)
	cfg.Mode = Blocking
	_, err := Run(cfg, func(c *Ctx) {
		ch := NewChan[int](1)
		sendRecv := func() {
			ch.Send(c, 1)
			ch.Recv(c)
		}
		spawnAwait := func() { c.Spawn(benchLeaf).Await(c) }
		for i := 0; i < 64; i++ {
			sendRecv()
			spawnAwait()
		}
		if avg := testing.AllocsPerRun(200, sendRecv); avg != 0 && !raceDetectorEnabled {
			t.Errorf("Blocking buffered Send+Recv allocates %.2f objects/op, want 0", avg)
		}
		if avg := testing.AllocsPerRun(200, spawnAwait); avg > 1 && !raceDetectorEnabled {
			t.Errorf("Blocking Spawn+Await allocates %.2f objects/op, want <= 1 (the Future)", avg)
		}
		if avg := testing.AllocsPerRun(200, func() { ch = NewChan[int](1) }); avg != 1 {
			t.Errorf("NewChan allocates %.2f objects, want 1", avg)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestAllocsMultiWorkerFanout holds the allocation contract where
// AllocsPerRun cannot look: it pins GOMAXPROCS to 1, so no gate above
// sees four workers stealing at once. A 256-wide fan-out of empty leaves
// and the steal-heavy skew (a 512-wide fan-out of spinning leaves) run
// at Workers: 4, and an op — one public Spawn + Await — may allocate
// its one user-visible Future plus slack. The count is the
// MemStats.Mallocs delta over a measured pass after a warm pass in the
// same Run, least of three Runs.
func TestAllocsMultiWorkerFanout(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("sync.Pool drops objects under -race")
	}
	for _, tc := range []struct {
		name string
		fan  int
		leaf func(*Ctx)
	}{
		{"wide-fanout", 256, benchLeaf},
		{"steal-skew", 512, benchSpin},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const warm, ops = 2048, 20480 // multiples of both fan widths
			best := math.Inf(1)
			for pass := 0; pass < 3; pass++ {
				var perOp float64
				_, err := Run(benchConfig(4), func(c *Ctx) {
					futs := make([]*Future, tc.fan)
					fanout := func(n int) {
						for done := 0; done < n; done += tc.fan {
							for i := range futs {
								futs[i] = c.Spawn(tc.leaf)
							}
							for _, f := range futs {
								f.Await(c)
							}
						}
					}
					fanout(warm)
					var m0, m1 goruntime.MemStats
					goruntime.ReadMemStats(&m0)
					fanout(ops)
					goruntime.ReadMemStats(&m1)
					perOp = float64(m1.Mallocs-m0.Mallocs) / ops
				})
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
				best = min(best, perOp)
			}
			t.Logf("%.3f allocs/op", best)
			if best > 2 {
				t.Errorf("%.2f allocs/op at P=4, want <= 2 (one public Future plus slack)", best)
			}
		})
	}
}

// TestAllocsResumeInjectionSteadyState gates the bulk resume-injection
// path: a storm round wakes 32 channel-suspended consumers (their
// re-injections batching into single pfor pushes on the home deque) and
// drains their replies — and must allocate nothing once warm.
func TestAllocsResumeInjectionSteadyState(t *testing.T) {
	const storm = 32
	_, err := Run(benchConfig(1), func(c *Ctx) {
		work := NewChan[int](0)
		ack := NewChan[int](0)
		futs := make([]*Future, storm)
		for i := 0; i < storm; i++ {
			futs[i] = c.Spawn(func(cc *Ctx) {
				for {
					v, ok := work.RecvOK(cc)
					if !ok {
						return
					}
					ack.Send(cc, v)
				}
			})
		}
		round := func() {
			for i := 0; i < storm; i++ {
				work.Send(c, i)
			}
			for i := 0; i < storm; i++ {
				ack.Recv(c)
			}
		}
		round() // warm: park every consumer, size the queues and buffers
		round()
		if avg := testing.AllocsPerRun(50, round); avg != 0 && !raceDetectorEnabled {
			t.Errorf("resume-injection round allocates %.2f objects/round at steady state, want 0", avg)
		}
		work.Close()
		for i := 0; i < storm; i++ {
			futs[i].Await(c)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// benchValueLeaf, benchMapItem and benchSum are package-level so the gates
// and benchmarks below count the runtime's allocations, not closures.
var (
	benchValueLeaf = func(*Ctx) int { return 1 }
	benchMapItem   = func(_ *Ctx, i int) int { return i }
	benchForItem   = func(*Ctx, int) {}
	benchSum       = func(a, b int) int { return a + b }
)

// TestAllocsSpawnValueSteadyState gates SpawnValue + Await at one object:
// the Value is the child's whole spawn record (Future, body and result).
func TestAllocsSpawnValueSteadyState(t *testing.T) {
	_, err := Run(benchConfig(1), func(c *Ctx) {
		round := func() {
			if SpawnValue(c, benchValueLeaf).Await(c) != 1 {
				t.Error("SpawnValue returned a wrong result")
			}
		}
		for i := 0; i < 64; i++ {
			round()
		}
		if avg := testing.AllocsPerRun(200, round); avg > 1 && !raceDetectorEnabled {
			t.Errorf("SpawnValue+Await allocates %.2f objects/op at steady state, want <= 1 (the Value)", avg)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestAllocsMapReduceAndForSteadyState gates the library's fork-join
// primitives at one spawn record per split: a 64-element MapReduce or
// For with grain 1 splits 63 times.
func TestAllocsMapReduceAndForSteadyState(t *testing.T) {
	const n = 64
	const splits = n - 1
	_, err := Run(benchConfig(1), func(c *Ctx) {
		mapReduce := func() {
			if got := MapReduce(c, 0, n, 0, benchMapItem, benchSum); got != n*(n-1)/2 {
				t.Errorf("MapReduce = %d, want %d", got, n*(n-1)/2)
			}
		}
		forLoop := func() { For(c, 0, n, 1, benchForItem) }
		for i := 0; i < 4; i++ {
			mapReduce()
			forLoop()
		}
		if raceDetectorEnabled {
			return
		}
		if avg := testing.AllocsPerRun(50, mapReduce); avg > splits {
			t.Errorf("MapReduce over %d elements allocates %.2f objects/call, want <= %d (one record per split)", n, avg, splits)
		}
		if avg := testing.AllocsPerRun(50, forLoop); avg > splits {
			t.Errorf("For over %d elements, grain 1, allocates %.2f objects/call, want <= %d (one record per split)", n, avg, splits)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

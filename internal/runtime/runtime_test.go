package runtime

import (
	"errors"
	"os"
	goruntime "runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestMain raises GOMAXPROCS so worker goroutines genuinely interleave even
// on single-core hosts: the scheduler under test multiplexes user-level
// tasks over OS-thread-backed workers, and steals require the workers to
// actually run concurrently.
func TestMain(m *testing.M) {
	if goruntime.GOMAXPROCS(0) < 4 {
		goruntime.GOMAXPROCS(4)
	}
	os.Exit(m.Run())
}

func modes() []Mode { return []Mode{LatencyHiding, Blocking} }

func TestRunSimple(t *testing.T) {
	for _, m := range modes() {
		var ran atomic.Bool
		st, err := Run(Config{Workers: 2, Mode: m}, func(c *Ctx) {
			ran.Store(true)
		})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if !ran.Load() {
			t.Fatalf("%v: root did not run", m)
		}
		if st.TasksSpawned != 1 {
			t.Errorf("%v: TasksSpawned = %d, want 1", m, st.TasksSpawned)
		}
	}
}

func TestInvalidConfig(t *testing.T) {
	if _, err := Run(Config{Workers: 0}, func(c *Ctx) {}); err == nil {
		t.Fatal("accepted 0 workers")
	}
}

func TestSpawnAwait(t *testing.T) {
	for _, m := range modes() {
		for _, p := range []int{1, 2, 4} {
			var sum atomic.Int64
			_, err := Run(Config{Workers: p, Mode: m}, func(c *Ctx) {
				futs := make([]*Future, 10)
				for i := range futs {
					i := i
					futs[i] = c.Spawn(func(cc *Ctx) { sum.Add(int64(i)) })
				}
				for _, f := range futs {
					f.Await(c)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if sum.Load() != 45 {
				t.Fatalf("%v P=%d: sum = %d, want 45", m, p, sum.Load())
			}
		}
	}
}

func TestSpawnValue(t *testing.T) {
	for _, m := range modes() {
		got, err := runFib(m, 2, 10)
		if err != nil {
			t.Fatal(err)
		}
		if got != 55 {
			t.Fatalf("%v: fib(10) = %d, want 55", m, got)
		}
	}
}

// runFib computes Fibonacci with the naive parallel recursion, spawning the
// n-2 branch and computing the n-1 branch inline.
func runFib(m Mode, workers, n int) (int64, error) {
	var out int64
	_, err := Run(Config{Workers: workers, Mode: m}, func(c *Ctx) {
		out = fib(c, n)
	})
	return out, err
}

func fib(c *Ctx, n int) int64 {
	if n < 2 {
		return int64(n)
	}
	right := SpawnValue(c, func(cc *Ctx) int64 { return fib(cc, n-2) })
	left := fib(c, n-1)
	return left + right.Await(c)
}

func TestFibParallelDeep(t *testing.T) {
	for _, m := range modes() {
		for _, p := range []int{1, 3} {
			got, err := runFib(m, p, 16)
			if err != nil {
				t.Fatal(err)
			}
			if got != 987 {
				t.Fatalf("%v P=%d: fib(16) = %d, want 987", m, p, got)
			}
		}
	}
}

func TestNestedSpawns(t *testing.T) {
	for _, m := range modes() {
		var count atomic.Int64
		_, err := Run(Config{Workers: 3, Mode: m}, func(c *Ctx) {
			var outer []*Future
			for i := 0; i < 4; i++ {
				outer = append(outer, c.Spawn(func(cc *Ctx) {
					var inner []*Future
					for j := 0; j < 4; j++ {
						inner = append(inner, cc.Spawn(func(ccc *Ctx) {
							count.Add(1)
						}))
					}
					for _, f := range inner {
						f.Await(cc)
					}
				}))
			}
			for _, f := range outer {
				f.Await(c)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if count.Load() != 16 {
			t.Fatalf("%v: count = %d, want 16", m, count.Load())
		}
	}
}

func TestLatencyCompletes(t *testing.T) {
	for _, m := range modes() {
		var after atomic.Bool
		_, err := Run(Config{Workers: 1, Mode: m}, func(c *Ctx) {
			c.Latency(2 * time.Millisecond)
			after.Store(true)
		})
		if err != nil {
			t.Fatal(err)
		}
		if !after.Load() {
			t.Fatalf("%v: code after Latency did not run", m)
		}
	}
}

// TestLatencyHidingOverlapsWaits is the headline behaviour: N tasks each
// incurring latency d on one worker finish in ~d wall time under
// LatencyHiding and ~N·d under Blocking.
func TestLatencyHidingOverlapsWaits(t *testing.T) {
	const (
		n = 8
		d = 20 * time.Millisecond
	)
	run := func(m Mode) time.Duration {
		st, err := Run(Config{Workers: 1, Mode: m}, func(c *Ctx) {
			var futs []*Future
			for i := 0; i < n; i++ {
				futs = append(futs, c.Spawn(func(cc *Ctx) {
					cc.Latency(d)
				}))
			}
			for _, f := range futs {
				f.Await(c)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return st.Wall
	}
	lh := run(LatencyHiding)
	bl := run(Blocking)
	if lh > time.Duration(n)*d/2 {
		t.Errorf("latency-hiding wall %v; want well under %v (n·d/2)", lh, time.Duration(n)*d/2)
	}
	if bl < time.Duration(n)*d {
		t.Errorf("blocking wall %v; want >= %v (serialized latency)", bl, time.Duration(n)*d)
	}
	if lh*3 > bl {
		t.Errorf("latency hiding (%v) not at least 3x faster than blocking (%v)", lh, bl)
	}
}

// TestSuspensionStats: latency-hiding mode records suspensions; blocking
// mode records none (it blocks instead), so it never registers a resumed
// deque and the shared loop's drainResumed never injects a batch there.
func TestSuspensionStats(t *testing.T) {
	body := func(c *Ctx) {
		var futs []*Future
		for i := 0; i < 5; i++ {
			futs = append(futs, c.Spawn(func(cc *Ctx) { cc.Latency(time.Millisecond) }))
		}
		for _, f := range futs {
			f.Await(c)
		}
	}
	lh, err := Run(Config{Workers: 2, Mode: LatencyHiding}, body)
	if err != nil {
		t.Fatal(err)
	}
	if lh.Suspensions < 5 {
		t.Errorf("latency-hiding suspensions = %d, want >= 5", lh.Suspensions)
	}
	bl, err := Run(Config{Workers: 2, Mode: Blocking}, body)
	if err != nil {
		t.Fatal(err)
	}
	if bl.Suspensions != 0 || bl.ResumeBatches != 0 {
		t.Errorf("blocking suspensions = %d, resume batches = %d; want 0 and 0", bl.Suspensions, bl.ResumeBatches)
	}
}

// TestMultiDequeGrowth: many concurrent suspensions grow per-worker deque
// counts beyond one in latency-hiding mode.
func TestMultiDequeGrowth(t *testing.T) {
	// A worker's deque count grows when it steals while already owning a
	// suspended deque; give thieves enough compute-then-suspend tasks to
	// make that happen.
	var st *Stats
	for attempt := 0; attempt < 20 && (st == nil || st.MaxDequesPerWorker < 2); attempt++ {
		var err error
		st, err = Run(Config{Workers: 3, Mode: LatencyHiding, Seed: uint64(attempt)}, func(c *Ctx) {
			var futs []*Future
			for i := 0; i < 50; i++ {
				futs = append(futs, c.Spawn(func(cc *Ctx) {
					busyWork(20000)
					cc.Latency(10 * time.Millisecond)
				}))
			}
			for _, f := range futs {
				f.Await(c)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if st.MaxDequesPerWorker < 2 {
		t.Errorf("MaxDequesPerWorker = %d, want >= 2", st.MaxDequesPerWorker)
	}
}

func TestStealsHappen(t *testing.T) {
	for _, m := range modes() {
		var st *Stats
		for attempt := 0; attempt < 20 && (st == nil || st.Steals == 0); attempt++ {
			var err error
			st, err = Run(Config{Workers: 4, Mode: m, Seed: uint64(attempt)}, func(c *Ctx) {
				var futs []*Future
				for i := 0; i < 64; i++ {
					futs = append(futs, c.Spawn(func(cc *Ctx) {
						busyWork(100000)
					}))
				}
				for _, f := range futs {
					f.Await(c)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		if st.Steals == 0 {
			t.Errorf("%v: no steals despite 64 tasks on 4 workers", m)
		}
	}
}

// busyWork spins for roughly n iterations of integer work so tasks have
// measurable CPU cost.
var busySink int64

func busyWork(n int) {
	var acc int64
	for i := 0; i < n; i++ {
		acc += int64(i ^ (i >> 3))
	}
	atomic.AddInt64(&busySink, acc)
}

func TestAwaitAlreadyDone(t *testing.T) {
	for _, m := range modes() {
		_, err := Run(Config{Workers: 2, Mode: m}, func(c *Ctx) {
			f := c.Spawn(func(cc *Ctx) {})
			time.Sleep(5 * time.Millisecond) // let the child finish
			f.Await(c)                       // fast path
			f.Await(c)                       // double await is safe
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestDoneNonBlocking(t *testing.T) {
	_, err := Run(Config{Workers: 2, Mode: LatencyHiding}, func(c *Ctx) {
		f := c.Spawn(func(cc *Ctx) { cc.Latency(5 * time.Millisecond) })
		_ = f.Done() // must not block regardless of state
		f.Await(c)
		if !f.Done() {
			panic("future not done after await")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWorkerIndexValid(t *testing.T) {
	_, err := Run(Config{Workers: 3, Mode: LatencyHiding}, func(c *Ctx) {
		if c.Worker() < 0 || c.Worker() >= 3 {
			panic("worker index out of range")
		}
		c.Latency(time.Millisecond)
		if c.Worker() < 0 || c.Worker() >= 3 {
			panic("worker index out of range after resume")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestManySuspendedTasks mirrors the paper's observation that the
// scheduler handles computations with large numbers of suspended threads.
func TestManySuspendedTasks(t *testing.T) {
	const n = 500
	var done atomic.Int64
	st, err := Run(Config{Workers: 4, Mode: LatencyHiding}, func(c *Ctx) {
		var futs []*Future
		for i := 0; i < n; i++ {
			futs = append(futs, c.Spawn(func(cc *Ctx) {
				cc.Latency(10 * time.Millisecond)
				done.Add(1)
			}))
		}
		for _, f := range futs {
			f.Await(c)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if done.Load() != n {
		t.Fatalf("completed %d of %d latency tasks", done.Load(), n)
	}
	// All fetches should overlap: wall time well under n×10ms.
	if st.Wall > n*10*time.Millisecond/10 {
		t.Errorf("wall %v suggests latency was not hidden", st.Wall)
	}
}

// TestMapReduceWorkload runs the §5 distributed map-reduce end to end on
// the real runtime.
func TestMapReduceWorkload(t *testing.T) {
	sumTo := func(m Mode) int64 {
		var rec func(c *Ctx, lo, hi int) int64
		rec = func(c *Ctx, lo, hi int) int64 {
			if hi-lo == 1 {
				c.Latency(time.Millisecond) // getValue
				return int64(lo)            // f(x) = x
			}
			mid := (lo + hi) / 2
			right := SpawnValue(c, func(cc *Ctx) int64 { return rec(cc, mid, hi) })
			left := rec(c, lo, mid)
			return left + right.Await(c)
		}
		var out int64
		if _, err := Run(Config{Workers: 3, Mode: m}, func(c *Ctx) {
			out = rec(c, 0, 64)
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := int64(64 * 63 / 2)
	for _, m := range modes() {
		if got := sumTo(m); got != want {
			t.Fatalf("%v: mapreduce sum = %d, want %d", m, got, want)
		}
	}
}

func TestModeString(t *testing.T) {
	if LatencyHiding.String() != "latency-hiding" || Blocking.String() != "blocking" {
		t.Error("mode strings wrong")
	}
	if Mode(9).String() == "" {
		t.Error("unknown mode empty")
	}
}

func BenchmarkSpawnJoin(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Run(Config{Workers: 2, Mode: LatencyHiding}, func(c *Ctx) {
			f := c.Spawn(func(cc *Ctx) {})
			f.Await(c)
		})
	}
}

func BenchmarkFibRuntime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := runFib(LatencyHiding, 2, 12); err != nil {
			b.Fatal(err)
		}
	}
}

// TestTaskPanicBecomesError: a panic inside a task surfaces as ErrTaskPanic
// from Run rather than crashing the process, and joins on the panicked
// task's future unwind instead of hanging.
func TestTaskPanicBecomesError(t *testing.T) {
	for _, m := range modes() {
		_, err := Run(Config{Workers: 2, Mode: m}, func(c *Ctx) {
			f := c.Spawn(func(cc *Ctx) {
				panic("boom")
			})
			f.Await(c) // must not hang
		})
		if !errors.Is(err, ErrTaskPanic) {
			t.Fatalf("%v: err = %v, want ErrTaskPanic", m, err)
		}
		if err != nil && !strings.Contains(err.Error(), "boom") {
			t.Errorf("%v: panic value lost: %v", m, err)
		}
	}
}

// TestRootPanicBecomesError: a panic in the root task is also caught.
func TestRootPanicBecomesError(t *testing.T) {
	_, err := Run(Config{Workers: 1, Mode: LatencyHiding}, func(c *Ctx) {
		panic("root boom")
	})
	if !errors.Is(err, ErrTaskPanic) {
		t.Fatalf("err = %v, want ErrTaskPanic", err)
	}
}

// TestFirstPanicWins: concurrent panics report one of them, and Run still
// returns.
func TestFirstPanicWins(t *testing.T) {
	_, err := Run(Config{Workers: 4, Mode: LatencyHiding}, func(c *Ctx) {
		var futs []*Future
		for i := 0; i < 8; i++ {
			futs = append(futs, c.Spawn(func(cc *Ctx) { panic("multi") }))
		}
		for _, f := range futs {
			f.Await(c)
		}
	})
	if !errors.Is(err, ErrTaskPanic) {
		t.Fatalf("err = %v, want ErrTaskPanic", err)
	}
}

package runtime

import (
	goruntime "runtime"
	"sort"
	"syscall"
	"testing"
	"time"
)

// Count-based tests of the park/wake handshake (worker.idle, published,
// addResumed). They assert on Stats counters, not on wall time,
// except where the property is itself a latency.

func processCPU(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatalf("getrusage: %v", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// Idle costs nothing: with the only task suspended on an outside event for
// 200 ms, the other workers park at once and the first follows; nobody
// polls. The polling ladder made tens of thousands of steal
// attempts here.
func TestIdleRunParksInsteadOfPolling(t *testing.T) {
	const p = 4
	ch := make(chan int)
	cpu0 := processCPU(t)
	st, err := Run(Config{Workers: p}, func(c *Ctx) {
		// The sender starts inside the run, so its 200 ms cannot begin
		// before Run's wall clock does on a loaded host.
		go func() {
			time.Sleep(200 * time.Millisecond)
			ch <- 7
		}()
		if v, err := AwaitChan(c, ch); v != 7 || err != nil {
			t.Errorf("AwaitChan = %d, %v", v, err)
		}
	})
	cpu := processCPU(t) - cpu0
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st.Wall < 200*time.Millisecond {
		t.Fatalf("run took %v, the wait was not waited for", st.Wall)
	}
	if st.StealAttempts > 64*p {
		t.Errorf("StealAttempts = %d over an idle 200 ms, want <= %d", st.StealAttempts, 64*p)
	}
	if st.Parks < p-1 {
		t.Errorf("Parks = %d, want >= %d", st.Parks, p-1)
	}
	if cpu > 30*time.Millisecond {
		t.Errorf("process CPU over an idle 200 ms run = %v, want < 30ms", cpu)
	}
}

// No lost wake: every round needs a spawn wake (the child must run while
// the parent waits for it) or an owner wake (the parent's receive resumes
// on a deque whose owner may have parked), 20 000 times over. A single
// lost one stalls the run and the watchdog reports it. Wakes are bounded by
// events, not time: each is charged to a spawn, to a resumed task (its
// owner wake, its injection, or a search that ended by finding it), or to
// the steal that ended a search.
func TestNoLostWorkerWake(t *testing.T) {
	const rounds = 20000
	for _, p := range []int{2, 4, 8} {
		st, err := Run(Config{Workers: p, Seed: uint64(p), StallTimeout: 2 * time.Second}, func(c *Ctx) {
			ch := NewChan[int](0)
			for i := 0; i < rounds; i++ {
				child := c.Spawn(func(cc *Ctx) { ch.Send(cc, i) })
				if got := ch.Recv(c); got != i {
					t.Errorf("P=%d round %d: received %d", p, i, got)
					return
				}
				child.Await(c)
			}
		})
		if err != nil {
			t.Fatalf("P=%d: Run: %v", p, err)
		}
		if st.Stalled {
			t.Fatalf("P=%d: watchdog fired", p)
		}
		if bound := st.TasksSpawned + 3*st.Suspensions + st.Steals + int64(p); st.WorkerWakes > bound {
			t.Errorf("P=%d: WorkerWakes = %d > spawns %d + 3*suspensions %d + steals %d + P",
				p, st.WorkerWakes, st.TasksSpawned, st.Suspensions, st.Steals)
		}
		t.Logf("P=%d: wakes %d parks %d spawned %d suspensions %d steals %d/%d",
			p, st.WorkerWakes, st.Parks, st.TasksSpawned, st.Suspensions, st.Steals, st.StealAttempts)
	}
}

// Owner-targeted wake: on an otherwise idle run every Latency expiry lands
// on a deque whose owner is parked, and only that owner can run it. The
// timer wakes it directly, so the task is late by a wheel tick plus a
// goroutine wake — not by a sleeping worker's next poll (≈1.2 ms).
func TestOwnerWakeLateness(t *testing.T) {
	const n, d = 200, time.Millisecond
	late := make([]time.Duration, 0, n)
	st, err := Run(Config{Workers: 4}, func(c *Ctx) {
		for i := 0; i < n; i++ {
			t0 := time.Now()
			c.Latency(d)
			late = append(late, time.Since(t0)-d)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
	if med := late[n/2]; med >= time.Millisecond {
		t.Errorf("median lateness of Latency(1ms) on an idle run = %v, want < 1ms", med)
	}
	if st.WorkerWakes < n/2 {
		t.Errorf("WorkerWakes = %d over %d expiries on an idle run: owners were not parked", st.WorkerWakes, n)
	}
}

// On a single P the timer goroutine can run only when the workers give
// the P up — the reason the polling ladder slept. Parked workers do.
func TestParkingYieldsSingleP(t *testing.T) {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
	sum := 0
	_, err := Run(Config{Workers: 4, Deadline: 20 * time.Second}, func(c *Ctx) {
		for i := 0; i < 20; i++ {
			futs := make([]*Value[int], 8)
			for j := range futs {
				j := j
				futs[j] = SpawnValue(c, func(cc *Ctx) int {
					cc.Latency(time.Millisecond)
					return j
				})
			}
			for _, f := range futs {
				sum += f.Await(c)
			}
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if want := 20 * 28; sum != want {
		t.Fatalf("sum = %d, want %d", sum, want)
	}
}

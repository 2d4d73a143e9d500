package main

import (
	"math"
	goruntime "runtime"
	"sync"
	"time"

	"lhws/internal/rng"
	"lhws/internal/runtime"
)

// params are the inputs of one episode.
type params struct {
	seed    uint64
	window  time.Duration
	workers int // P: runtime workers, and active clients on the serve workloads
}

// episode is one fresh set-up followed by one measured window.
type episode struct {
	setup     time.Duration // episode start to window open
	window    time.Duration // the window as it actually ran
	ops       int64         // operations completed inside the window
	lat       []int64       // latency samples taken inside the window, ns
	mallocs   uint64        // heap allocations during the window
	attempted int64         // operations attempted, warm-up included
	failed    int64         // of those: wrong output, error, timeout or refusal
	err       error         // why the episode broke, if it did

	// What the layers report from outside; read by the traced run.
	stats       *runtime.Stats // of the Run that carried the episode
	runOps      int64          // operations that whole Run completed
	gcCycles    uint32         // GC cycles during the window
	memSysMB    float64        // MemStats.Sys at window close
	peakBridges int            // io.PeakBridges
	bufGets     uint64         // bufpool.Get calls during the window
	bufNews     uint64         // of those, served by a fresh allocation
	rejected    int64          // requests admit refused
	acceptNS    []int64        // client Dial start to handler start, per conn
}

// memWindow brackets a measured window with the process-wide counters
// that only make sense as deltas.
type memWindow struct{ ms goruntime.MemStats }

func (m *memWindow) open() { goruntime.ReadMemStats(&m.ms) }

func (m *memWindow) close(ep *episode) {
	mallocs, gcs := m.ms.Mallocs, m.ms.NumGC
	goruntime.ReadMemStats(&m.ms)
	ep.mallocs = m.ms.Mallocs - mallocs
	ep.gcCycles = m.ms.NumGC - gcs
	ep.memSysMB = float64(m.ms.Sys) / (1 << 20)
}

// runConfig is the runtime configuration every workload uses. Deadline
// and StallTimeout turn a hang into a typed error from Run.
func runConfig(p params, mode runtime.Mode) runtime.Config {
	return runtime.Config{
		Workers:      p.workers,
		Mode:         mode,
		Seed:         p.seed,
		Deadline:     p.window + 2*time.Minute,
		StallTimeout: 10 * time.Second,
	}
}

// runRounds is the episode shape forkjoin and mapreduce share: one Run
// whose root task does warm rounds, opens the window, and then does
// back-to-back rounds until the window closes. A round is one latency
// sample and opsPerRound operations; round reports whether its output
// matched the oracle.
func runRounds(p params, tr *tracer, start time.Time, warm int, opsPerRound int64,
	round func(c *runtime.Ctx, sc scope) bool) episode {
	var ep episode
	ep.stats, ep.err = runtime.Run(runConfig(p, runtime.LatencyHiding), func(c *runtime.Ctx) {
		var id uint64
		do := func() int64 {
			id++
			t0 := clock()
			sc := tr.sample(id).open("round", t0)
			ok := round(c, sc)
			t1 := clock()
			sc.close(t1)
			ep.attempted += opsPerRound
			if !ok {
				ep.failed += opsPerRound
			}
			return t1 - t0
		}
		for i := 0; i < warm; i++ {
			do()
		}
		var mem memWindow
		mem.open()
		open := time.Now()
		ep.setup = open.Sub(start)
		for time.Since(open) < p.window {
			ep.lat = append(ep.lat, do())
			ep.ops += opsPerRound
		}
		ep.window = time.Since(open)
		mem.close(&ep)
	})
	ep.runOps = ep.attempted - ep.failed
	if ep.err != nil && ep.failed == 0 {
		ep.failed = opsPerRound // the round the error cut short
	}
	return ep
}

// ---- forkjoin ----

const (
	fibN      = 27
	fibCutoff = 12 // fib(n) below this runs serially
	fibWant   = 196418
	fibWarm   = 20
)

func fibSerial(n int) int {
	if n < 2 {
		return n
	}
	return fibSerial(n-1) + fibSerial(n-2)
}

// fibSpawns is the number of tasks one fib(n) spawns.
func fibSpawns(n int) int64 {
	if n < fibCutoff {
		return 0
	}
	return 1 + fibSpawns(n-1) + fibSpawns(n-2)
}

func fib(c *runtime.Ctx, n int, sc scope) int {
	if n < fibCutoff {
		return fibSerial(n)
	}
	t0 := sc.now()
	a := runtime.SpawnValue(c, func(cc *runtime.Ctx) int { return fib(cc, n-1, sc) })
	sc.add("runtime.spawn", t0, sc.now())
	b := fib(c, n-2, sc)
	t1 := sc.now()
	v := a.Await(c)
	sc.add("runtime.await", t1, sc.now())
	return v + b
}

func forkjoin(p params, tr *tracer) episode {
	return runRounds(p, tr, time.Now(), fibWarm, fibSpawns(fibN), func(c *runtime.Ctx, sc scope) bool {
		return fib(c, fibN, sc) == fibWant
	})
}

// goWaitGroupFib is the native reference for forkjoin: the same
// recursion with a goroutine and a WaitGroup per spawn.
func goWaitGroupFib(n int) int {
	if n < fibCutoff {
		return fibSerial(n)
	}
	var a int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		a = goWaitGroupFib(n - 1)
	}()
	b := goWaitGroupFib(n - 2)
	wg.Wait()
	return a + b
}

// baselineGoWaitGroup returns tasks per second of goWaitGroupFib rounds
// over budget.
func baselineGoWaitGroup(budget time.Duration) float64 {
	start, rounds := time.Now(), 0
	for time.Since(start) < budget {
		if goWaitGroupFib(fibN) != fibWant {
			return 0
		}
		rounds++
	}
	return float64(int64(rounds)*fibSpawns(fibN)) / time.Since(start).Seconds()
}

// ---- mapreduce ----

const (
	mapItems  = 2048
	mapSpin   = 2000 // xorshift steps per item after its latency, about 3 µs
	mapWarm   = 4
	mapMeanMS = 0.5 // δ = mapMeanMS·(1+Exp(1)) ms, truncated at mapMaxMS
	mapMaxMS  = 4.0
)

// spin is the CPU work of an item: steps rounds of xorshift64 from x.
func spin(x uint64, steps int) uint64 {
	x |= 1
	for i := 0; i < steps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

type mapItem struct {
	delay time.Duration
	x     uint64
}

// mapInputs draws the per-item latencies and spin seeds for a seed, and
// the reduce sum they must produce.
func mapInputs(seed uint64, n int) (items []mapItem, want uint64) {
	r := rng.New(seed)
	items = make([]mapItem, n)
	for i := range items {
		ms := math.Min(mapMeanMS*(1-math.Log(1-r.Float64())), mapMaxMS)
		items[i] = mapItem{delay: time.Duration(ms * float64(time.Millisecond)), x: r.Uint64()}
		want += spin(items[i].x, mapSpin)
	}
	return items, want
}

func mapRound(c *runtime.Ctx, items []mapItem, sc scope) uint64 {
	return runtime.MapReduce(c, 0, len(items), uint64(0), func(cc *runtime.Ctx, i int) uint64 {
		it := &items[i]
		due := sc.now() + int64(it.delay)
		cc.Latency(it.delay)
		// The span is the lateness alone: from when the latency was due
		// to when the task ran again.
		sc.add("runtime.resume_delay", due, sc.now())
		return spin(it.x, mapSpin)
	}, func(a, b uint64) uint64 { return a + b })
}

func mapreduce(p params, tr *tracer) episode {
	start := time.Now()
	items, want := mapInputs(p.seed, mapItems)
	return runRounds(p, tr, start, mapWarm, mapItems, func(c *runtime.Ctx, sc scope) bool {
		return mapRound(c, items, sc) == want
	})
}

// baselineBlocking returns items per second of one Blocking-mode round of
// n items: the paper's standard work stealing, where a latency holds its
// worker.
func baselineBlocking(p params, n int) float64 {
	items, want := mapInputs(p.seed, n)
	var took time.Duration
	var ok bool
	_, err := runtime.Run(runConfig(p, runtime.Blocking), func(c *runtime.Ctx) {
		t0 := time.Now()
		ok = mapRound(c, items, scope{}) == want
		took = time.Since(t0)
	})
	if err != nil || !ok {
		return 0
	}
	return float64(n) / took.Seconds()
}

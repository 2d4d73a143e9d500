package main

import (
	"sync"
	"time"

	"lhws/internal/bufpool"
	"lhws/internal/deque"
	"lhws/internal/rng"
	"lhws/internal/runtime"
	"lhws/internal/timerwheel"
)

// Direct micro-loops on the layers' public types. They run on one
// goroutine, cost well under a second together, do not depend on the
// workload, and are reported with every traced run. A layer change that
// moves one of these but no end-to-end metric is not on a blocking path.

// perOp runs f, which performs n operations, and returns ns per operation.
func perOp(n int, f func()) float64 {
	t0 := time.Now()
	f()
	return float64(time.Since(t0)) / float64(n)
}

// dequeLoops times the Chase–Lev deque: an owner push+pop pair, a thief's
// single PopTop, and PopTopBatch per item moved.
//
//lhws:owner the deque is private to this function and only this goroutine touches it
func dequeLoops() (pushPop, popTop, popTopBatch float64) {
	const n, fill = 1 << 20, 1 << 10
	d := deque.NewChaseLev()
	var item deque.Item = new(int)
	pushPop = perOp(n, func() {
		for i := 0; i < n; i++ {
			d.PushBottom(item)
			d.PopBottom()
		}
	})
	var spent time.Duration
	for r := 0; r < n/fill; r++ {
		for i := 0; i < fill; i++ {
			d.PushBottom(item)
		}
		t0 := time.Now()
		for i := 0; i < fill; i++ {
			d.PopTop()
		}
		spent += time.Since(t0)
	}
	popTop = float64(spent) / n

	dst := make([]deque.Item, deque.MaxBatch)
	spent, moved := 0, 0
	for r := 0; r < n/fill; r++ {
		for i := 0; i < fill; i++ {
			d.PushBottom(item)
		}
		t0 := time.Now()
		for d.Len() > 0 { // a batch takes at most half, so this drains in steps
			moved += d.PopTopBatch(dst, runtime.DefaultStealBatch)
		}
		spent += time.Since(t0)
	}
	popTopBatch = float64(spent) / float64(moved)
	return pushPop, popTop, popTopBatch
}

// timerLoops times a private timer wheel: an AfterFunc+Stop pair, and how
// late 10 000 timers with seeded deadlines of 1–8 ms fire.
func timerLoops(seed uint64) (armStop float64, lateNS []int64) {
	const pairs, timers = 200_000, 10_000
	w := timerwheel.New(0)
	defer w.Shutdown()
	armStop = perOp(pairs, func() {
		for i := 0; i < pairs; i++ {
			w.AfterFunc(time.Second, func(any) {}, nil).Stop()
		}
	})
	type shot struct {
		due  int64
		late *int64
	}
	r := rng.New(seed)
	lateNS = make([]int64, timers)
	var wg sync.WaitGroup
	wg.Add(timers)
	fired := func(arg any) {
		s := arg.(*shot)
		*s.late = clock() - s.due
		wg.Done()
	}
	for i := range lateNS {
		d := time.Millisecond + time.Duration(r.Intn(int(7*time.Millisecond)))
		w.AfterFunc(d, fired, &shot{due: clock() + int64(d), late: &lateNS[i]})
	}
	wg.Wait()
	return armStop, lateNS
}

// bufpoolLoop times a Get(64)+Release pair.
func bufpoolLoop() float64 {
	const n = 1 << 20
	return perOp(n, func() {
		for i := 0; i < n; i++ {
			bufpool.Get(frameSize).Release()
		}
	})
}

// ladder times a serial Spawn(leaf)+Await pair inside a Run: two grant
// handoffs and no parallelism, the floor under every spawned task.
func ladder(p params) float64 {
	const n = 20_000
	var ns float64
	leaf := func(*runtime.Ctx) {}
	_, err := runtime.Run(runConfig(p, runtime.LatencyHiding), func(c *runtime.Ctx) {
		ns = perOp(n, func() {
			for i := 0; i < n; i++ {
				c.Spawn(leaf).Await(c)
			}
		})
	})
	if err != nil {
		return 0
	}
	return ns
}

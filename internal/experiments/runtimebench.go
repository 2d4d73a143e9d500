package experiments

import (
	"fmt"
	goruntime "runtime"
	"time"

	"lhws/internal/runtime"
	"lhws/internal/stats"
)

// Runtime-overhead microbenchmarks (`-exp runtime`): the per-quantum cost
// of the real (goroutine) runtime's hot paths, mirrored from
// internal/runtime's testing benchmarks so they can be regenerated and
// regression-checked outside `go test` and emitted as BENCH_runtime.json.
// An "op" is one scheduling quantum's worth of work per workload: one
// spawn+await for the ladder, one spawned task for the fan-outs, one
// 32-wide broadcast round for the resume storm.
//
// Each workload is measured three times and the fastest pass is reported
// (benchstat's convention for noisy shared machines); allocations come
// from runtime.MemStats deltas around the measured loop.
//
// The record carries no "before" column: timings here are a local
// profile, and the only gates are the machine-independent allocation
// ones. Performance claims are made against the parent commit with the
// repo benchmark (BENCHMARK.json, benchmark/), same run and paired.

// RuntimeBenchRow is one workload's measurement.
type RuntimeBenchRow struct {
	Name        string  `json:"name"`
	Workers     int     `json:"workers"`
	Ops         int     `json:"ops"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// RuntimeBenchResult is the full sweep, serialized as BENCH_runtime.json.
type RuntimeBenchResult struct {
	GoMaxProcs int               `json:"gomaxprocs"`
	Seed       uint64            `json:"seed"`
	Rows       []RuntimeBenchRow `json:"rows"`
}

const runtimeBenchRepeats = 5

// RuntimeBench measures the hot-path workloads and returns the sweep.
func RuntimeBench(seed uint64) (*RuntimeBenchResult, error) {
	res := &RuntimeBenchResult{GoMaxProcs: goruntime.GOMAXPROCS(0), Seed: seed}
	leaf := func(*runtime.Ctx) {}
	spin := func(*runtime.Ctx) {
		x := uint64(88172645463325252)
		for i := 0; i < 64; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		runtimeBenchSink = x
	}

	type workload struct {
		name    string
		workers int
		ops     int
		body    func(c *runtime.Ctx, ops int)
	}
	ladder := func(c *runtime.Ctx, ops int) {
		for i := 0; i < ops; i++ {
			c.Spawn(leaf).Await(c)
		}
	}
	fanout := func(fanLeaf func(*runtime.Ctx), fan int) func(c *runtime.Ctx, ops int) {
		return func(c *runtime.Ctx, ops int) {
			futs := make([]*runtime.Future, fan)
			for done := 0; done < ops; {
				n := fan
				if ops-done < n {
					n = ops - done
				}
				for i := 0; i < n; i++ {
					futs[i] = c.Spawn(fanLeaf)
				}
				for i := 0; i < n; i++ {
					futs[i].Await(c)
				}
				done += n
			}
		}
	}
	storm := func(c *runtime.Ctx, ops int) {
		const width = 32
		work := runtime.NewChan[int](0)
		ack := runtime.NewChan[int](0)
		futs := make([]*runtime.Future, width)
		for i := 0; i < width; i++ {
			futs[i] = c.Spawn(func(cc *runtime.Ctx) {
				for {
					v, ok := work.RecvOK(cc)
					if !ok {
						return
					}
					ack.Send(cc, v)
				}
			})
		}
		for r := 0; r < ops; r++ {
			for i := 0; i < width; i++ {
				work.Send(c, i)
			}
			for i := 0; i < width; i++ {
				ack.Recv(c)
			}
		}
		work.Close()
		for i := 0; i < width; i++ {
			futs[i].Await(c)
		}
	}

	workloads := []workload{
		{"spawn-await-ladder", 1, 200_000, ladder},
		{"spawn-await-ladder", 4, 200_000, ladder},
		{"wide-fanout", 1, 200_000, fanout(leaf, 256)},
		{"wide-fanout", 4, 200_000, fanout(leaf, 256)},
		{"steal-skew", 4, 100_000, fanout(spin, 512)},
		{"resume-storm", 1, 60_000, storm},
		{"resume-storm", 4, 20_000, storm},
	}
	for _, wl := range workloads {
		row, err := measureRuntimeWorkload(seed, wl.name, wl.workers, wl.ops, wl.body)
		if err != nil {
			return nil, fmt.Errorf("%s/%d: %w", wl.name, wl.workers, err)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

var runtimeBenchSink uint64

// measureRuntimeWorkload runs body inside the root task of a fresh Run:
// a warmup pass primes the worker-local free lists, then the measured
// pass is timed with allocation deltas. The fastest of
// runtimeBenchRepeats passes wins; allocations come from the same pass.
func measureRuntimeWorkload(seed uint64, name string, workers, ops int, body func(*runtime.Ctx, int)) (RuntimeBenchRow, error) {
	row := RuntimeBenchRow{Name: name, Workers: workers, Ops: ops}
	for rep := 0; rep < runtimeBenchRepeats; rep++ {
		var ns, bytesOp, allocsOp float64
		_, err := runtime.Run(runtime.Config{Workers: workers, Mode: runtime.LatencyHiding, Seed: seed}, func(c *runtime.Ctx) {
			warm := ops / 10
			if warm > 2048 {
				warm = 2048
			}
			body(c, warm)
			var m0, m1 goruntime.MemStats
			goruntime.ReadMemStats(&m0)
			start := time.Now()
			body(c, ops)
			elapsed := time.Since(start)
			goruntime.ReadMemStats(&m1)
			ns = float64(elapsed.Nanoseconds()) / float64(ops)
			bytesOp = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(ops)
			allocsOp = float64(m1.Mallocs-m0.Mallocs) / float64(ops)
		})
		if err != nil {
			return row, err
		}
		if rep == 0 || ns < row.NsPerOp {
			row.NsPerOp = ns
			row.BytesPerOp = bytesOp
			row.AllocsPerOp = allocsOp
		}
	}
	return row, nil
}

// Table renders the sweep.
func (r *RuntimeBenchResult) Table() *stats.Table {
	t := stats.NewTable("workload", "P", "ns/op", "allocs/op", "B/op")
	for _, row := range r.Rows {
		t.AddRowf(row.Name, row.Workers,
			fmt.Sprintf("%.0f", row.NsPerOp),
			fmt.Sprintf("%.2f", row.AllocsPerOp),
			fmt.Sprintf("%.0f", row.BytesPerOp))
	}
	return t
}

// Check enforces the machine-independent contract: pooled paths stay
// allocation-free — the storm rounds exactly, spawn paths at their one
// documented Future per public Spawn plus slack for stray runtime
// allocations.
func (r *RuntimeBenchResult) Check() error {
	for _, row := range r.Rows {
		switch row.Name {
		case "resume-storm":
			if row.AllocsPerOp > 0.5 {
				return fmt.Errorf("%s/%d: %.2f allocs/round, want 0 (steady-state resume injection must not allocate)",
					row.Name, row.Workers, row.AllocsPerOp)
			}
		default:
			if row.AllocsPerOp > 2 {
				return fmt.Errorf("%s/%d: %.2f allocs/op, want <= 2 (one public Future plus slack)",
					row.Name, row.Workers, row.AllocsPerOp)
			}
		}
	}
	return nil
}

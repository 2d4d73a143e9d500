package experiments

import (
	"testing"
	"time"

	"lhws/internal/dag"
	"lhws/internal/runtime"
	"lhws/internal/sched"
	"lhws/internal/stats"
	"lhws/internal/workload"
)

// TestRunDAG runs the §5 workloads through runDAG in both modes and checks
// the runtime against the dag's exact measures: every vertex runs once, a
// latency-hiding run suspends once per heavy edge, realizes the suspension
// width U (as the simulator does on the same dag at the same P), and keeps
// at most U+1 deques per worker (Lemma 7). A Blocking run holds a worker
// per wait, so at most P waits are in flight and each worker keeps its one
// deque.
func TestRunDAG(t *testing.T) {
	// δ = 200 rounds lets the simulator issue all 64 map-reduce fetches
	// before the first returns even at P = 1. At 150 µs a round that is
	// 30 ms, several times the runtime's fork-tree time under -race, so
	// the runtime issues them all too. Blocking pays n·δ/P, so it runs
	// the same dags at a 10 µs round.
	const delta = 200
	rounds := map[runtime.Mode]time.Duration{runtime.LatencyHiding: 150 * time.Microsecond, runtime.Blocking: 10 * time.Microsecond}
	cases := []struct {
		w *workload.Workload
		// full: the run must realize the suspension width (δ ≫ the
		// time to issue every wait). Fib has no heavy edge.
		full bool
	}{
		{workload.Fib(12), false},
		{workload.MapReduce(workload.MapReduceConfig{N: 64, Delta: delta, FibWork: 2}), true},
		{workload.Server(workload.ServerConfig{Requests: 4, Delta: delta, FibWork: 4}), true},
		{workload.Mixed(12, 16, delta), true},
	}
	for _, tc := range cases {
		g := tc.w.G
		u := g.SuspensionWidth()
		for _, mode := range []runtime.Mode{runtime.LatencyHiding, runtime.Blocking} {
			for _, p := range []int{1, 2, 4} {
				r, err := runDAG(g, runtime.Config{Workers: p, Mode: mode, Seed: 1}, rounds[mode])
				if err != nil {
					t.Fatalf("%s %v P=%d: %v", tc.w.Name, mode, p, err)
				}
				for v, n := range r.Runs {
					if n != 1 {
						t.Fatalf("%s %v P=%d: vertex %d ran %d times", tc.w.Name, mode, p, v, n)
					}
				}
				st := r.Stats
				t.Logf("%s %v P=%d: U=%d peak=%d suspensions=%d deques/worker=%d wall=%v",
					tc.w.Name, mode, p, u, r.PeakLatency, st.Suspensions, st.MaxDequesPerWorker, st.Wall.Round(100*time.Microsecond))
				if mode == runtime.Blocking {
					if r.PeakLatency > int64(p) {
						t.Errorf("%s blocking P=%d: %d waits in flight, want <= P", tc.w.Name, p, r.PeakLatency)
					}
					if st.MaxDequesPerWorker != 1 {
						t.Errorf("%s blocking P=%d: %d deques on one worker, want 1", tc.w.Name, p, st.MaxDequesPerWorker)
					}
					continue
				}
				if st.Suspensions != int64(g.HeavyEdges()) {
					t.Errorf("%s P=%d: %d suspensions, want one per heavy edge (%d)", tc.w.Name, p, st.Suspensions, g.HeavyEdges())
				}
				if int(st.MaxDequesPerWorker) > u+1 {
					t.Errorf("%s P=%d: %d deques on one worker, Lemma 7 bounds it by U+1 = %d", tc.w.Name, p, st.MaxDequesPerWorker, u+1)
				}
				if !tc.full {
					continue
				}
				sim, err := sched.RunLHWS(g, sched.Options{Workers: p, Seed: 1})
				if err != nil {
					t.Fatal(err)
				}
				if r.PeakLatency != int64(u) || sim.Stats.MaxSuspended != u {
					t.Errorf("%s P=%d: runtime peak %d, simulator peak %d, U = %d: want all equal",
						tc.w.Name, p, r.PeakLatency, sim.Stats.MaxSuspended, u)
				}
			}
		}
	}
}

// TestRunDAGMapReduceHidesLatency is Figure 11's claim in wall-clock time:
// with fetch latency ≫ element work, Blocking pays about n·δ/P, while
// latency hiding overlaps every fetch and wins by a wide margin.
func TestRunDAGMapReduceHidesLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock comparison in -short mode")
	}
	const n, deltaRounds, round = 60, 40, 100 * time.Microsecond
	g := workload.MapReduce(workload.MapReduceConfig{N: n, Delta: deltaRounds, FibWork: 2}).G
	delta := deltaRounds * round // 4 ms
	for _, p := range []int{1, 2} {
		var wall [2]time.Duration
		for i, mode := range []runtime.Mode{runtime.LatencyHiding, runtime.Blocking} {
			r, err := runDAG(g, runtime.Config{Workers: p, Mode: mode, Seed: 1}, round)
			if err != nil {
				t.Fatal(err)
			}
			wall[i] = r.Stats.Wall
		}
		lh, bl := wall[0], wall[1]
		ratio := float64(bl) / float64(lh)
		t.Logf("map-reduce n=%d δ=%v P=%d: latency-hiding %v, blocking %v, blocking/LH %.1f×",
			n, delta, p, lh.Round(100*time.Microsecond), bl.Round(time.Millisecond), ratio)
		if floor := n * delta / time.Duration(2*p); bl < floor {
			t.Errorf("P=%d: blocking finished in %v, under the latency floor n·δ/(2P) = %v", p, bl, floor)
		}
		if ratio < 2 {
			t.Errorf("P=%d: latency hiding only %.1f× faster than blocking", p, ratio)
		}
	}
}

// TestRunDAGMixedResponsiveness runs workload.Mixed, interactive requests
// (a fetch, then a handler vertex) beside a batch fib on two workers.
// Every request arrives at t = 0, and its response time is when its
// handler finishes. Suspended fetches release the workers, so latency
// hiding answers the median request well before Blocking does.
func TestRunDAGMixedResponsiveness(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock comparison in -short mode")
	}
	const round = 100 * time.Microsecond
	g := workload.Mixed(18, 20, 30).G // δ = 3 ms
	var p50 [2]time.Duration
	for i, mode := range []runtime.Mode{runtime.LatencyHiding, runtime.Blocking} {
		r, err := runDAG(g, runtime.Config{Workers: 2, Mode: mode, Seed: 1}, round)
		if err != nil {
			t.Fatal(err)
		}
		var resp []float64
		for v := 0; v < g.NumVertices(); v++ {
			for _, e := range g.OutEdges(dag.VertexID(v)) {
				if e.Heavy() {
					resp = append(resp, float64(r.Done[e.To]))
				}
			}
		}
		p50[i] = time.Duration(stats.Percentile(resp, 50))
		t.Logf("%v: %d requests, p50 %v, p95 %v, max %v, wall %v", mode, len(resp),
			p50[i].Round(100*time.Microsecond), time.Duration(stats.Percentile(resp, 95)).Round(100*time.Microsecond),
			time.Duration(stats.Percentile(resp, 100)).Round(100*time.Microsecond), r.Stats.Wall.Round(100*time.Microsecond))
	}
	if p50[0] >= p50[1] {
		t.Errorf("latency-hiding p50 response %v not below blocking %v", p50[0], p50[1])
	}
}

package experiments

import (
	"sync/atomic"
	"time"

	"lhws/internal/dag"
	"lhws/internal/runtime"
)

// dagUnitSpin is the busy-loop length of one vertex, the dag model's unit
// of work.
const dagUnitSpin = 2000

// dagRun is what one runDAG execution observed.
type dagRun struct {
	Stats *runtime.Stats
	// Runs counts the executions of each vertex: 1 everywhere in a
	// correct run.
	Runs []int32
	// Done is when each vertex finished, measured from just before Run.
	Done []time.Duration
	// PeakLatency is the most Latency calls that were in flight at once:
	// the suspension width the runtime realized.
	PeakLatency int64
}

// runDAG executes the weighted dag g on the runtime, so the vertices the
// simulator schedules in rounds run as real tasks in wall-clock time. Each
// vertex spins dagUnitSpin iterations. The predecessor that takes a
// vertex's join counter to zero runs that vertex: with two children
// enabled it spawns the right one (§2's spawned thread) and continues with
// the left one (the continuation) in the same task. A heavy in-edge of
// weight δ becomes Latency(δ·round), called by the task about to run the
// edge's target; heavy targets have in-degree one, so that task is the one
// the edge's source enabled. Spawned tasks are never awaited: Run returns
// once the sink has finished and every task has drained.
func runDAG(g *dag.Graph, cfg runtime.Config, round time.Duration) (*dagRun, error) {
	n := g.NumVertices()
	join := make([]atomic.Int32, n)
	for v := range join {
		join[v].Store(int32(g.InDegree(dag.VertexID(v))))
	}
	runs := make([]atomic.Int32, n)
	done := make([]atomic.Int64, n)
	var inflight, peak, sink atomic.Int64
	var start time.Time

	var exec func(c *runtime.Ctx, v dag.VertexID, weight int64)
	exec = func(c *runtime.Ctx, v dag.VertexID, weight int64) {
		var acc int64
		for {
			if weight > 1 {
				k := inflight.Add(1)
				for p := peak.Load(); k > p && !peak.CompareAndSwap(p, k); p = peak.Load() {
				}
				c.Latency(time.Duration(weight) * round)
				inflight.Add(-1)
			}
			for i := 0; i < dagUnitSpin; i++ {
				acc += int64(i ^ (i >> 3))
			}
			runs[v].Add(1)
			done[v].Store(int64(time.Since(start)))

			var next [2]dag.OutEdge
			k := 0
			for _, e := range g.OutEdges(v) {
				if join[e.To].Add(-1) == 0 {
					next[k] = e
					k++
				}
			}
			if k == 0 {
				sink.Add(acc) // keeps the spin loops from being optimized away
				return
			}
			if k == 2 {
				r := next[1]
				c.Spawn(func(cc *runtime.Ctx) { exec(cc, r.To, r.Weight) })
			}
			v, weight = next[0].To, next[0].Weight
		}
	}
	start = time.Now()
	st, err := runtime.Run(cfg, func(c *runtime.Ctx) { exec(c, g.Root(), 1) })
	res := &dagRun{Stats: st, Runs: make([]int32, n), Done: make([]time.Duration, n), PeakLatency: peak.Load()}
	for v := range runs {
		res.Runs[v] = runs[v].Load()
		res.Done[v] = time.Duration(done[v].Load())
	}
	return res, err
}

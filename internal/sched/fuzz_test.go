package sched

import (
	"testing"

	"lhws/internal/dag"
	"lhws/internal/workload"
)

// FuzzSchedulersAgree generates a random weighted dag and runs all three
// schedulers plus the §7 variants over it: every run must complete every
// vertex while respecting dependencies and latencies, LHWS and WS must
// satisfy the Lemma-2 invariants, and the structural bounds (Lemma 7,
// suspension width) must hold. LHWS and WS share one engine, so this is
// also the differential check between them.
func FuzzSchedulersAgree(f *testing.F) {
	f.Add(uint64(1), uint8(40), uint8(60), uint8(2))
	f.Add(uint64(7), uint8(200), uint8(120), uint8(5))
	f.Add(uint64(42), uint8(10), uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, sizeRaw, pHeavyRaw, pRaw uint8) {
		g := workload.Random(workload.RandomConfig{
			Seed:           seed,
			TargetVertices: 1 + int(sizeRaw),
			PHeavy:         float64(pHeavyRaw) / 255,
			MaxDelta:       25,
		}).G
		p := 1 + int(pRaw)%8
		u := g.SuspensionWidth()

		check := func(name string, res *Result, err error) {
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if res.Stats.UserWork != g.Work() {
				t.Fatalf("%s: executed %d of %d", name, res.Stats.UserWork, g.Work())
			}
			for v := 0; v < g.NumVertices(); v++ {
				for _, e := range g.OutEdges(dag.VertexID(v)) {
					if res.ExecRound[e.To] < res.ExecRound[v]+e.Weight {
						t.Fatalf("%s: edge %d->%d latency violated", name, v, e.To)
					}
				}
			}
			if res.Stats.MaxSuspended > u {
				t.Fatalf("%s: MaxSuspended %d > U %d", name, res.Stats.MaxSuspended, u)
			}
		}

		lh, err := RunLHWS(g, Options{Workers: p, Seed: seed, CheckInvariants: true})
		check("lhws", lh, err)
		if lh.Stats.MaxDequesPerWorker > u+1 {
			t.Fatalf("Lemma 7 violated: %d deques, U=%d", lh.Stats.MaxDequesPerWorker, u)
		}
		opt, err := RunLHWS(g, Options{Workers: p, Seed: seed, Policy: StealWorkerThenDeque})
		check("lhws-opt", opt, err)
		frozen, err := RunLHWS(g, Options{Workers: p, Seed: seed, Variant: VariantSuspendDeque})
		check("lhws-frozen", frozen, err)
		nd, err := RunLHWS(g, Options{Workers: p, Seed: seed, Variant: VariantResumeNewDeque})
		check("lhws-newdeq", nd, err)
		ws, err := RunWS(g, Options{Workers: p, Seed: seed, CheckInvariants: true})
		check("ws", ws, err)
		gr, err := RunGreedy(g, p)
		check("greedy", gr, err)
		if gr.Stats.Rounds > GreedyBound(g, p) {
			t.Fatalf("greedy exceeded Theorem-1 bound: %d > %d", gr.Stats.Rounds, GreedyBound(g, p))
		}
	})
}

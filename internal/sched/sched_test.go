package sched

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"lhws/internal/dag"
	"lhws/internal/workload"
)

// assertValidExecution checks the fundamental correctness of a schedule:
// every vertex executed, and every dependency respected including latency —
// for each edge (u,v,δ), exec(v) ≥ exec(u) + δ.
func assertValidExecution(t *testing.T, g *dag.Graph, res *Result) {
	t.Helper()
	for v := 0; v < g.NumVertices(); v++ {
		if res.ExecRound[v] < 0 {
			t.Fatalf("vertex %d never executed", v)
		}
	}
	for u := 0; u < g.NumVertices(); u++ {
		for _, e := range g.OutEdges(dag.VertexID(u)) {
			if res.ExecRound[e.To] < res.ExecRound[u]+e.Weight {
				t.Fatalf("edge %d->%d (δ=%d) violated: exec(u)=%d exec(v)=%d",
					u, e.To, e.Weight, res.ExecRound[u], res.ExecRound[e.To])
			}
		}
	}
	if res.Stats.UserWork != g.Work() {
		t.Fatalf("UserWork = %d, want %d", res.Stats.UserWork, g.Work())
	}
}

type runner func(g *dag.Graph, opt Options) (*Result, error)

func runners() map[string]runner {
	return map[string]runner{
		"LHWS":          RunLHWS,
		"LHWS-optsteal": func(g *dag.Graph, o Options) (*Result, error) { o.Policy = StealWorkerThenDeque; return RunLHWS(g, o) },
		"WS":            RunWS,
		"Greedy":        func(g *dag.Graph, o Options) (*Result, error) { return RunGreedy(g, o.Workers) },
	}
}

func testGraphs(t *testing.T) map[string]*dag.Graph {
	t.Helper()
	return map[string]*dag.Graph{
		"fib10":     workload.Fib(10).G,
		"mapreduce": workload.MapReduce(workload.MapReduceConfig{N: 24, Delta: 17, FibWork: 4}).G,
		"server":    workload.Server(workload.ServerConfig{Requests: 10, Delta: 23, FibWork: 4}).G,
		"pipeline":  workload.Pipeline(workload.PipelineConfig{Items: 6, Stages: 3, StageWork: 5, Delta: 11}).G,
		"random1":   workload.Random(workload.RandomConfig{Seed: 1, TargetVertices: 120, PHeavy: 0.25, MaxDelta: 19}).G,
		"random2":   workload.Random(workload.RandomConfig{Seed: 42, TargetVertices: 200, PHeavy: 0.4, MaxDelta: 40}).G,
		"single":    singleVertex(t),
		"chain":     chainGraph(t, 17),
		"heavy1":    figure1Graph(t, 9),
	}
}

func singleVertex(t *testing.T) *dag.Graph {
	b := dag.NewBuilder()
	b.Vertex("v")
	return b.MustGraph()
}

func chainGraph(t *testing.T, n int) *dag.Graph {
	b := dag.NewBuilder()
	b.Chain(dag.None, n)
	return b.MustGraph()
}

func figure1Graph(t *testing.T, delta int64) *dag.Graph {
	b := dag.NewBuilder()
	fork := b.Vertex("fork")
	mul := b.Vertex("mul")
	input := b.Vertex("input")
	double := b.Vertex("double")
	add := b.Vertex("add")
	b.Light(fork, mul)
	b.Light(fork, input)
	b.Heavy(input, double, delta)
	b.Light(mul, add)
	b.Light(double, add)
	return b.MustGraph()
}

// TestAllSchedulersValidSchedules runs every scheduler over every test
// graph and worker count and asserts full dependency/latency correctness.
func TestAllSchedulersValidSchedules(t *testing.T) {
	for gname, g := range testGraphs(t) {
		for rname, run := range runners() {
			for _, p := range []int{1, 2, 3, 8} {
				res, err := run(g, Options{Workers: p, Seed: 7})
				if err != nil {
					t.Fatalf("%s/%s P=%d: %v", gname, rname, p, err)
				}
				assertValidExecution(t, g, res)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	g := workload.MapReduce(workload.MapReduceConfig{N: 32, Delta: 29, FibWork: 5}).G
	for rname, run := range runners() {
		a, err := run(g, Options{Workers: 5, Seed: 123})
		if err != nil {
			t.Fatal(err)
		}
		b, err := run(g, Options{Workers: 5, Seed: 123})
		if err != nil {
			t.Fatal(err)
		}
		if a.Stats != b.Stats {
			t.Errorf("%s: same seed, different stats:\n%+v\n%+v", rname, a.Stats, b.Stats)
		}
		for v := range a.ExecRound {
			if a.ExecRound[v] != b.ExecRound[v] {
				t.Fatalf("%s: same seed, vertex %d executed at %d vs %d", rname, v, a.ExecRound[v], b.ExecRound[v])
			}
		}
	}
}

func TestSeedChangesSchedule(t *testing.T) {
	g := workload.MapReduce(workload.MapReduceConfig{N: 32, Delta: 29, FibWork: 5}).G
	a, _ := RunLHWS(g, Options{Workers: 4, Seed: 1})
	b, _ := RunLHWS(g, Options{Workers: 4, Seed: 2})
	// Schedules should (almost surely) differ in steal counts.
	if a.Stats.StealAttempts == b.Stats.StealAttempts && a.Stats.Rounds == b.Stats.Rounds &&
		a.Stats.Switches == b.Stats.Switches {
		t.Log("warning: different seeds produced identical stats (possible but unlikely)")
	}
	assertValidExecution(t, g, a)
	assertValidExecution(t, g, b)
}

// TestUZeroReduction: with no heavy edges, LHWS must behave like standard
// work stealing — exactly one deque per worker ever (Lemma 7 with U=0 ...
// the initial deque), no pfor vertices, no suspensions.
func TestUZeroReduction(t *testing.T) {
	g := workload.Fib(12).G
	for _, p := range []int{1, 2, 4, 8} {
		res, err := RunLHWS(g, Options{Workers: p, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.MaxDequesPerWorker != 1 {
			t.Errorf("P=%d: MaxDequesPerWorker = %d, want 1", p, res.Stats.MaxDequesPerWorker)
		}
		if res.Stats.PforWork != 0 {
			t.Errorf("P=%d: PforWork = %d, want 0", p, res.Stats.PforWork)
		}
		if res.Stats.MaxSuspended != 0 {
			t.Errorf("P=%d: MaxSuspended = %d, want 0", p, res.Stats.MaxSuspended)
		}
	}
}

// TestLemma7DequeBound: no worker ever owns more than U+1 allocated deques.
func TestLemma7DequeBound(t *testing.T) {
	cases := []*workload.Workload{
		workload.MapReduce(workload.MapReduceConfig{N: 20, Delta: 15, FibWork: 3}),
		workload.Server(workload.ServerConfig{Requests: 12, Delta: 20, FibWork: 3}),
		workload.Pipeline(workload.PipelineConfig{Items: 5, Stages: 3, StageWork: 4, Delta: 9}),
		workload.Fib(10),
	}
	for _, w := range cases {
		u := w.G.SuspensionWidth()
		for _, p := range []int{1, 2, 4, 8} {
			res, err := RunLHWS(w.G, Options{Workers: p, Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.MaxDequesPerWorker > u+1 {
				t.Errorf("%s P=%d: MaxDequesPerWorker = %d > U+1 = %d",
					w.Name, p, res.Stats.MaxDequesPerWorker, u+1)
			}
		}
	}
}

// TestMaxSuspendedBoundedByU: the observed number of simultaneously
// suspended vertices never exceeds the suspension width.
func TestMaxSuspendedBoundedByU(t *testing.T) {
	for gname, g := range testGraphs(t) {
		u := g.SuspensionWidth()
		for rname, run := range runners() {
			res, err := run(g, Options{Workers: 4, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.MaxSuspended > u {
				t.Errorf("%s/%s: MaxSuspended = %d > U = %d", gname, rname, res.Stats.MaxSuspended, u)
			}
		}
	}
}

// TestLemma1TokenBound: rounds ≤ 4W/P + R/P (+1 for the final partial
// round).
func TestLemma1TokenBound(t *testing.T) {
	for gname, g := range testGraphs(t) {
		for _, p := range []int{1, 2, 4, 8} {
			res, err := RunLHWS(g, Options{Workers: p, Seed: 9})
			if err != nil {
				t.Fatal(err)
			}
			bound := (4*g.Work()+res.Stats.StealAttempts)/int64(p) + 2
			if res.Stats.Rounds > bound {
				t.Errorf("%s P=%d: rounds %d > Lemma-1 bound %d (W=%d R=%d)",
					gname, p, res.Stats.Rounds, bound, g.Work(), res.Stats.StealAttempts)
			}
		}
	}
}

// TestPforWorkBound: internal pfor vertices never exceed the number of
// resumed vertices, hence W_pfor ≤ W (Lemma 1's 2W accounting).
func TestPforWorkBound(t *testing.T) {
	g := workload.MapReduce(workload.MapReduceConfig{N: 64, Delta: 31, FibWork: 3}).G
	res, err := RunLHWS(g, Options{Workers: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PforWork > g.Work() {
		t.Errorf("PforWork = %d > W = %d", res.Stats.PforWork, g.Work())
	}
}

// TestTheorem1GreedyBound: greedy schedules obey length ≤ W/P + S exactly.
func TestTheorem1GreedyBound(t *testing.T) {
	for gname, g := range testGraphs(t) {
		for _, p := range []int{1, 2, 3, 5, 16} {
			res, err := RunGreedy(g, p)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Rounds > GreedyBound(g, p) {
				t.Errorf("%s P=%d: greedy length %d > W/P+S = %d",
					gname, p, res.Stats.Rounds, GreedyBound(g, p))
			}
		}
	}
	// Sweep random dags for the same property.
	for seed := uint64(0); seed < 30; seed++ {
		g := workload.Random(workload.RandomConfig{Seed: seed, TargetVertices: 150, PHeavy: 0.3, MaxDelta: 25}).G
		for _, p := range []int{1, 2, 4} {
			res, err := RunGreedy(g, p)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Rounds > GreedyBound(g, p) {
				t.Errorf("random seed=%d P=%d: greedy length %d > %d", seed, p, res.Stats.Rounds, GreedyBound(g, p))
			}
		}
	}
}

// TestGreedyOptimalOnChain: a serial chain takes exactly W rounds under
// greedy on any P.
func TestGreedyOptimalOnChain(t *testing.T) {
	g := chainGraph(t, 40)
	for _, p := range []int{1, 3} {
		res, err := RunGreedy(g, p)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Rounds != 40 {
			t.Errorf("P=%d: chain rounds = %d, want 40", p, res.Stats.Rounds)
		}
	}
}

// TestLatencyHiding is the core behavioural claim: on a latency-dominated
// workload, LHWS completes far sooner than blocking WS.
func TestLatencyHiding(t *testing.T) {
	g := workload.MapReduce(workload.MapReduceConfig{N: 50, Delta: 400, FibWork: 4}).G
	for _, p := range []int{1, 2, 4} {
		lh, err := RunLHWS(g, Options{Workers: p, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		ws, err := RunWS(g, Options{Workers: p, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		// WS pays ~50·400/P rounds of blocking; LHWS overlaps all fetches.
		if lh.Stats.Rounds*2 >= ws.Stats.Rounds {
			t.Errorf("P=%d: LHWS %d rounds not <2x faster than WS %d rounds",
				p, lh.Stats.Rounds, ws.Stats.Rounds)
		}
		if ws.Stats.BlockedRounds == 0 {
			t.Errorf("P=%d: WS reported no blocked rounds on latency-bound workload", p)
		}
	}
}

// TestNoLatencyParity: on a pure-compute dag, LHWS and WS round counts are
// comparable (within 50%) — latency hiding costs nothing when there is no
// latency.
func TestNoLatencyParity(t *testing.T) {
	g := workload.Fib(14).G
	for _, p := range []int{1, 4} {
		lh, err := RunLHWS(g, Options{Workers: p, Seed: 8})
		if err != nil {
			t.Fatal(err)
		}
		ws, err := RunWS(g, Options{Workers: p, Seed: 8})
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(lh.Stats.Rounds) / float64(ws.Stats.Rounds)
		if ratio > 1.5 || ratio < 0.6 {
			t.Errorf("P=%d: LHWS/WS round ratio %.2f out of [0.6,1.5] (%d vs %d)",
				p, ratio, lh.Stats.Rounds, ws.Stats.Rounds)
		}
	}
}

// TestSingleWorkerLHWSHidesLatency: even P=1 benefits, by switching deques
// while fetches are in flight (the work-conserving property).
func TestSingleWorkerLHWSHidesLatency(t *testing.T) {
	g := workload.MapReduce(workload.MapReduceConfig{N: 40, Delta: 300, FibWork: 3}).G
	lh, err := RunLHWS(g, Options{Workers: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ws, err := RunWS(g, Options{Workers: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// WS(1) ≈ W + 40·300; LHWS(1) ≈ W + 300.
	if lh.Stats.Rounds*3 >= ws.Stats.Rounds {
		t.Errorf("LHWS(1)=%d rounds, WS(1)=%d rounds; want >3x gap", lh.Stats.Rounds, ws.Stats.Rounds)
	}
}

// TestCorollary1EnablingSpan: the enabling span S* is O(S(1+lg U)); check
// with the explicit constant of the proof (2) plus slack for the pfor
// chain rounding.
func TestCorollary1EnablingSpan(t *testing.T) {
	cases := []*workload.Workload{
		workload.MapReduce(workload.MapReduceConfig{N: 32, Delta: 21, FibWork: 4}),
		workload.Server(workload.ServerConfig{Requests: 10, Delta: 17, FibWork: 4}),
		workload.Random(workload.RandomConfig{Seed: 5, TargetVertices: 150, PHeavy: 0.3, MaxDelta: 15}),
	}
	for _, w := range cases {
		s := w.G.Span()
		u := w.G.SuspensionWidth()
		lg := math.Log2(float64(u) + 1)
		bound := int64(4 * float64(s) * (1 + lg))
		for rname, run := range map[string]runner{"LHWS": RunLHWS, "WS": RunWS} {
			for _, p := range []int{1, 4} {
				res, err := run(w.G, Options{Workers: p, Seed: 6})
				if err != nil {
					t.Fatal(err)
				}
				if res.Stats.EnablingSpan > bound {
					t.Errorf("%s/%s P=%d: S* = %d > 4·S(1+lgU) = %d (S=%d U=%d)",
						w.Name, rname, p, res.Stats.EnablingSpan, bound, s, u)
				}
			}
		}
	}
}

// TestTheorem2RoundBound: measured rounds stay within a small constant of
// the Theorem-2 bound W/P + S·U·(1+lg U).
func TestTheorem2RoundBound(t *testing.T) {
	cases := []*workload.Workload{
		workload.MapReduce(workload.MapReduceConfig{N: 16, Delta: 13, FibWork: 3}),
		workload.Server(workload.ServerConfig{Requests: 8, Delta: 19, FibWork: 3}),
		workload.Fib(11),
	}
	const c = 8 // constant factor allowance
	for _, w := range cases {
		wk, s := w.G.Work(), w.G.Span()
		u := int64(w.G.SuspensionWidth())
		for _, p := range []int{1, 2, 4, 8} {
			res, err := RunLHWS(w.G, Options{Workers: p, Seed: 13})
			if err != nil {
				t.Fatal(err)
			}
			lg := math.Log2(float64(u) + 2)
			bound := int64(c * (float64(wk)/float64(p) + float64(s)*float64(u+1)*(1+lg)))
			if res.Stats.Rounds > bound {
				t.Errorf("%s P=%d: rounds %d > %d·(W/P+SU(1+lgU)) = %d",
					w.Name, p, res.Stats.Rounds, c, bound)
			}
		}
	}
}

// TestMoreWorkersNotCatastrophic: adding workers should not slow the
// computation down by more than the steal-overhead factor.
func TestMoreWorkersNotCatastrophic(t *testing.T) {
	g := workload.MapReduce(workload.MapReduceConfig{N: 64, Delta: 41, FibWork: 5}).G
	r1, err := RunLHWS(g, Options{Workers: 1, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	r8, err := RunLHWS(g, Options{Workers: 8, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if r8.Stats.Rounds > r1.Stats.Rounds {
		t.Errorf("8 workers slower than 1: %d vs %d rounds", r8.Stats.Rounds, r1.Stats.Rounds)
	}
}

// TestOptimizedStealPolicyFewerFailures: the §6 worker-then-deque policy
// should waste fewer attempts than uniform random-deque selection.
func TestOptimizedStealPolicyFewerFailures(t *testing.T) {
	g := workload.MapReduce(workload.MapReduceConfig{N: 48, Delta: 37, FibWork: 4}).G
	var failRandom, failOpt float64
	const trials = 5
	for seed := uint64(0); seed < trials; seed++ {
		a, err := RunLHWS(g, Options{Workers: 6, Seed: seed, Policy: StealRandomDeque})
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunLHWS(g, Options{Workers: 6, Seed: seed, Policy: StealWorkerThenDeque})
		if err != nil {
			t.Fatal(err)
		}
		failRandom += float64(a.Stats.StealAttempts - a.Stats.StealSuccesses)
		failOpt += float64(b.Stats.StealAttempts - b.Stats.StealSuccesses)
	}
	if failOpt >= failRandom {
		t.Errorf("optimized policy failed steals %.0f >= random policy %.0f", failOpt, failRandom)
	}
}

func TestInvalidWorkerCount(t *testing.T) {
	g := workload.Fib(5).G
	if _, err := RunLHWS(g, Options{Workers: 0}); err == nil {
		t.Error("LHWS accepted 0 workers")
	}
	if _, err := RunWS(g, Options{Workers: -1}); err == nil {
		t.Error("WS accepted -1 workers")
	}
	if _, err := RunGreedy(g, 0); err == nil {
		t.Error("Greedy accepted 0 workers")
	}
}

func TestRoundLimit(t *testing.T) {
	g := workload.MapReduce(workload.MapReduceConfig{N: 16, Delta: 100, FibWork: 3}).G
	_, err := RunLHWS(g, Options{Workers: 2, Seed: 1, MaxRounds: 10})
	if !errors.Is(err, ErrRoundLimit) {
		t.Errorf("err = %v, want ErrRoundLimit", err)
	}
}

func TestSpeedupHelper(t *testing.T) {
	r := &Result{Stats: Stats{Rounds: 50}}
	if got := r.Speedup(200); got != 4.0 {
		t.Errorf("Speedup = %v, want 4", got)
	}
}

func TestStealPolicyString(t *testing.T) {
	if StealRandomDeque.String() != "random-deque" {
		t.Error("StealRandomDeque string wrong")
	}
	if StealWorkerThenDeque.String() != "worker-then-deque" {
		t.Error("StealWorkerThenDeque string wrong")
	}
	if StealPolicy(99).String() == "" {
		t.Error("unknown policy produced empty string")
	}
}

// TestServerDequeCount: U=1, so each worker holds at most 2 deques at once.
func TestServerDequeCount(t *testing.T) {
	g := workload.Server(workload.ServerConfig{Requests: 15, Delta: 25, FibWork: 5}).G
	res, err := RunLHWS(g, Options{Workers: 4, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MaxDequesPerWorker > 2 {
		t.Errorf("server: MaxDequesPerWorker = %d, want <= 2", res.Stats.MaxDequesPerWorker)
	}
}

// TestHeavyEdgeLatencyExact: on Figure 1's dag with one worker, the
// suspended vertex executes exactly when its latency expires (not earlier,
// and under LHWS the single worker should not idle longer than needed).
func TestHeavyEdgeLatencyExact(t *testing.T) {
	delta := int64(9)
	g := figure1Graph(t, delta)
	res, err := RunLHWS(g, Options{Workers: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var input, double dag.VertexID
	for v := 0; v < g.NumVertices(); v++ {
		switch g.Label(dag.VertexID(v)) {
		case "input":
			input = dag.VertexID(v)
		case "double":
			double = dag.VertexID(v)
		}
	}
	gap := res.ExecRound[double] - res.ExecRound[input]
	if gap < delta {
		t.Fatalf("suspended vertex ran after %d rounds, before latency %d expired", gap, delta)
	}
	if gap > delta+3 {
		t.Errorf("suspended vertex ran %d rounds after parent; want within %d+3", gap, delta)
	}
}

func TestGreedyIdleAccounting(t *testing.T) {
	// On the Figure-1 dag with P=2: total tokens = P·rounds =
	// work + idle.
	g := figure1Graph(t, 6)
	res, err := RunGreedy(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	tokens := 2 * res.Stats.Rounds
	if tokens != res.Stats.UserWork+res.Stats.IdleRounds {
		t.Errorf("token accounting broken: 2·%d != %d + %d",
			res.Stats.Rounds, res.Stats.UserWork, res.Stats.IdleRounds)
	}
}

// TestLemma2Invariants audits the analysis invariants (enabling-depth
// bound, deque depth ordering) on every test graph and worker count, for
// both LHWS steal policies and for WS: the auditor aborts the run on the
// first violation.
func TestLemma2Invariants(t *testing.T) {
	for gname, g := range testGraphs(t) {
		for rname, run := range runners() {
			if rname == "Greedy" {
				continue // no deques, nothing to audit
			}
			for _, p := range []int{1, 2, 4, 8} {
				res, err := run(g, Options{Workers: p, Seed: 31, CheckInvariants: true})
				if err != nil {
					t.Fatalf("%s/%s P=%d: %v", gname, rname, p, err)
				}
				assertValidExecution(t, g, res)
			}
		}
	}
}

// TestLemma2InvariantsRandomSweep audits random dags across seeds.
func TestLemma2InvariantsRandomSweep(t *testing.T) {
	for seed := uint64(0); seed < 40; seed++ {
		g := workload.Random(workload.RandomConfig{Seed: seed, TargetVertices: 150, PHeavy: 0.35, MaxDelta: 25}).G
		_, err := RunLHWS(g, Options{Workers: 4, Seed: seed, CheckInvariants: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestVariantsValidSchedules: the §7 ablation variants must still produce
// correct schedules on every test graph.
func TestVariantsValidSchedules(t *testing.T) {
	for gname, g := range testGraphs(t) {
		for _, v := range []Variant{VariantSuspendDeque, VariantResumeNewDeque} {
			for _, p := range []int{1, 2, 4} {
				res, err := RunLHWS(g, Options{Workers: p, Seed: 19, Variant: v})
				if err != nil {
					t.Fatalf("%s/%v P=%d: %v", gname, v, p, err)
				}
				assertValidExecution(t, g, res)
			}
		}
	}
}

// TestVariantSuspendDequeWastesWork: freezing the whole deque on
// suspension must cost rounds relative to the paper's design on a
// workload where suspensions strand runnable work.
func TestVariantSuspendDequeWastesWork(t *testing.T) {
	g := workload.MapReduce(workload.MapReduceConfig{N: 64, Delta: 200, FibWork: 5}).G
	var paper, frozen int64
	for seed := uint64(0); seed < 3; seed++ {
		a, err := RunLHWS(g, Options{Workers: 2, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunLHWS(g, Options{Workers: 2, Seed: seed, Variant: VariantSuspendDeque})
		if err != nil {
			t.Fatal(err)
		}
		paper += a.Stats.Rounds
		frozen += b.Stats.Rounds
	}
	if frozen <= paper {
		t.Errorf("suspend-deque variant (%d rounds) not slower than paper (%d rounds)", frozen, paper)
	}
}

// TestVariantResumeNewDequeBreaksLemma7: creating a deque per resume can
// exceed the U+1 per-worker bound that the paper's recycling guarantees.
func TestVariantResumeNewDequeBreaksLemma7(t *testing.T) {
	// Server has U=1; under the paper's variant each worker owns <= 2
	// deques. The resume-new-deque variant allocates a fresh deque per
	// resumed batch; verify correctness holds, and record whether the
	// high-water mark exceeded the Lemma-7 bound (it typically does on a
	// single worker since draining lags resumption).
	g := workload.Server(workload.ServerConfig{Requests: 30, Delta: 10, FibWork: 6}).G
	res, err := RunLHWS(g, Options{Workers: 1, Seed: 3, Variant: VariantResumeNewDeque})
	if err != nil {
		t.Fatal(err)
	}
	assertValidExecution(t, g, res)
	if res.Stats.MaxDequesPerWorker <= 2 {
		t.Logf("note: resume-new-deque stayed within U+1 on this run (max %d)", res.Stats.MaxDequesPerWorker)
	}
	paper, err := RunLHWS(g, Options{Workers: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if paper.Stats.MaxDequesPerWorker > 2 {
		t.Errorf("paper variant violated Lemma 7: %d deques", paper.Stats.MaxDequesPerWorker)
	}
	if res.Stats.TotalDequesAllocated < paper.Stats.TotalDequesAllocated {
		t.Errorf("resume-new-deque allocated fewer deques (%d) than paper (%d)",
			res.Stats.TotalDequesAllocated, paper.Stats.TotalDequesAllocated)
	}
}

func TestVariantString(t *testing.T) {
	if VariantPaper.String() != "paper" || VariantSuspendDeque.String() != "suspend-deque" ||
		VariantResumeNewDeque.String() != "resume-new-deque" {
		t.Error("variant strings wrong")
	}
	if Variant(9).String() == "" {
		t.Error("unknown variant empty")
	}
}

// TestPotentialTrace validates the §4 potential function on small runs:
// Φ starts at 3^(2S*−1), never exceeds its initial value, decreases on
// most rounds, and finishes at exactly zero.
func TestPotentialTrace(t *testing.T) {
	cases := []*dag.Graph{
		workload.Fib(8).G,
		workload.MapReduce(workload.MapReduceConfig{N: 8, Delta: 11, FibWork: 3}).G,
		workload.Server(workload.ServerConfig{Requests: 5, Delta: 9, FibWork: 3}).G,
		figure1Graph(t, 7),
	}
	for i, g := range cases {
		for _, p := range []int{1, 2, 4} {
			tr, err := TracePotential(g, Options{Workers: p, Seed: 23})
			if err != nil {
				t.Fatalf("case %d P=%d: %v", i, p, err)
			}
			if err := tr.CheckPotential(); err != nil {
				t.Errorf("case %d P=%d: %v (S*=%d rounds=%d incr=%d)",
					i, p, err, tr.SStar, tr.Rounds, tr.Increases)
			}
		}
	}
}

// TestPotentialDeterministicAcrossPasses: TracePotential relies on the
// seeded determinism of the simulator; the second pass must follow the
// first exactly, so the sampled round count matches the measured rounds.
func TestPotentialDeterministicAcrossPasses(t *testing.T) {
	g := workload.MapReduce(workload.MapReduceConfig{N: 8, Delta: 11, FibWork: 3}).G
	res, err := RunLHWS(g, Options{Workers: 2, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := TracePotential(g, Options{Workers: 2, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	// One sample per round plus the final boundary.
	if tr.Rounds != res.Stats.Rounds+1 {
		t.Errorf("sampled %d boundaries, want rounds+1 = %d", tr.Rounds, res.Stats.Rounds+1)
	}
}

// TestMultiprogrammedValid: executions under OS descheduling (the ABP
// multiprogrammed setting) remain correct for every availability pattern.
func TestMultiprogrammedValid(t *testing.T) {
	patterns := map[string]func(round int64) int{
		"half":     func(int64) int { return 4 },
		"one":      func(int64) int { return 1 },
		"sawtooth": func(r int64) int { return 1 + int(r%8) },
		"burst": func(r int64) int {
			if r%100 < 50 {
				return 8
			}
			return 2
		},
		"overlarge": func(int64) int { return 99 }, // clamped to P
		"zero":      func(int64) int { return 0 },  // clamped to 1
	}
	for gname, g := range testGraphs(t) {
		for pname, pat := range patterns {
			for rname, run := range map[string]runner{"LHWS": RunLHWS, "WS": RunWS} {
				res, err := run(g, Options{Workers: 8, Seed: 37, Available: pat})
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", gname, pname, rname, err)
				}
				assertValidExecution(t, g, res)
			}
		}
	}
}

// TestMultiprogrammedSlowdownProportional: with a constant grant of P/2,
// the computation should take roughly twice as long on a work-dominated
// dag (the ABP W/P_A intuition).
func TestMultiprogrammedSlowdownProportional(t *testing.T) {
	g := workload.Fib(14).G
	full, err := RunLHWS(g, Options{Workers: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	half, err := RunLHWS(g, Options{Workers: 8, Seed: 5, Available: func(int64) int { return 4 }})
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(half.Stats.Rounds) / float64(full.Stats.Rounds)
	if ratio < 1.5 || ratio > 3.0 {
		t.Errorf("half availability slowdown %.2f, want ~2 (rounds %d vs %d)",
			ratio, half.Stats.Rounds, full.Stats.Rounds)
	}
	if half.Stats.DescheduledRounds == 0 {
		t.Error("no descheduled rounds recorded")
	}
	if full.Stats.DescheduledRounds != 0 {
		t.Error("dedicated run recorded descheduled rounds")
	}
}

// TestMultiprogrammedDeterministic: availability patterns keep seeded
// determinism.
func TestMultiprogrammedDeterministic(t *testing.T) {
	g := workload.MapReduce(workload.MapReduceConfig{N: 16, Delta: 21, FibWork: 3}).G
	pat := func(r int64) int { return 1 + int(r%4) }
	a, err := RunLHWS(g, Options{Workers: 4, Seed: 9, Available: pat})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunLHWS(g, Options{Workers: 4, Seed: 9, Available: pat})
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats != b.Stats {
		t.Fatalf("multiprogrammed runs diverged:\n%+v\n%+v", a.Stats, b.Stats)
	}
}

// alignedResumeGraph builds a chain u_0..u_{k-1} where u_i suspends a
// child with latency D−i, so all k children resume in the same round and
// the scheduler must inject a k-leaf pfor tree (Figure 3, lines 7-14).
func alignedResumeGraph(t *testing.T, k int, d int64) *dag.Graph {
	t.Helper()
	if int64(k) >= d {
		t.Fatal("need D > k for aligned resumes")
	}
	b := dag.NewBuilder()
	us := make([]dag.VertexID, k)
	cs := make([]dag.VertexID, k)
	for i := 0; i < k; i++ {
		us[i] = b.Vertex("")
		if i > 0 {
			// continuation edge added after the heavy edge of u_{i-1}, so
			// the heavy child is the right child and the chain the left...
		}
	}
	for i := 0; i < k; i++ {
		cs[i] = b.Vertex("")
	}
	for i := 0; i < k; i++ {
		if i+1 < k {
			b.Light(us[i], us[i+1]) // left: continuation
		}
		b.Heavy(us[i], cs[i], d-int64(i)) // right: suspending child
	}
	acc := us[k-1]
	for i := k - 1; i >= 0; i-- {
		acc = b.Join(cs[i], acc)
	}
	return b.MustGraph()
}

// TestPforTreeInjection: k children resuming simultaneously to one deque
// must be re-injected through a pfor tree with exactly k−1 internal
// vertices on a single worker, and the computation must stay correct.
func TestPforTreeInjection(t *testing.T) {
	for _, k := range []int{2, 3, 7, 16, 33} {
		g := alignedResumeGraph(t, k, 100)
		res, err := RunLHWS(g, Options{Workers: 1, Seed: 1, CheckInvariants: true})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		assertValidExecution(t, g, res)
		if res.Stats.PforWork != int64(k-1) {
			t.Errorf("k=%d: PforWork = %d, want %d (one batch, binary tree internals)",
				k, res.Stats.PforWork, k-1)
		}
		if res.Stats.MaxSuspended != k {
			t.Errorf("k=%d: MaxSuspended = %d, want %d", k, res.Stats.MaxSuspended, k)
		}
	}
}

// TestPforTreeParallel: the same aligned workload across worker counts and
// policies still executes correctly (batches may split across deques).
func TestPforTreeParallel(t *testing.T) {
	g := alignedResumeGraph(t, 24, 200)
	for _, p := range []int{2, 4, 8} {
		res, err := RunLHWS(g, Options{Workers: p, Seed: 3, CheckInvariants: true})
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		assertValidExecution(t, g, res)
	}
}

// TestGoldenDeterminism pins exact statistics for fixed seeds: any change
// to scheduling order, RNG consumption, or tie-breaking shows up here.
// If a deliberate algorithm change alters these values, regenerate them
// and note the change in the commit.
func TestGoldenDeterminism(t *testing.T) {
	g := workload.MapReduce(workload.MapReduceConfig{N: 24, Delta: 31, FibWork: 4}).G
	golden := []struct {
		p                                  int
		lhRounds, lhSteals, lhSwitch, pfor int64
		wsRounds, grRounds                 int64
	}{
		{1, 406, 23, 1, 0, 1102, 382},
		{3, 155, 77, 4, 0, 373, 150},
		{7, 99, 294, 11, 0, 188, 86},
	}
	for _, want := range golden {
		lh, err := RunLHWS(g, Options{Workers: want.p, Seed: 2016})
		if err != nil {
			t.Fatal(err)
		}
		ws, err := RunWS(g, Options{Workers: want.p, Seed: 2016})
		if err != nil {
			t.Fatal(err)
		}
		gr, err := RunGreedy(g, want.p)
		if err != nil {
			t.Fatal(err)
		}
		got := [5]int64{lh.Stats.Rounds, lh.Stats.StealAttempts, lh.Stats.Switches, lh.Stats.PforWork, ws.Stats.Rounds}
		wantArr := [5]int64{want.lhRounds, want.lhSteals, want.lhSwitch, want.pfor, want.wsRounds}
		if got != wantArr {
			t.Errorf("P=%d: golden stats drifted: got %v, want %v", want.p, got, wantArr)
		}
		if gr.Stats.Rounds != want.grRounds {
			t.Errorf("P=%d: greedy rounds %d, want %d", want.p, gr.Stats.Rounds, want.grRounds)
		}
	}
}

// figure6Graph builds the example dag of the paper's Figure 6(a): 14
// vertices, two heavy edges (2→4 with weight 42, 5→9), used there to
// illustrate enabling-tree construction.
func figure6Graph(t *testing.T) *dag.Graph {
	t.Helper()
	b := dag.NewBuilder()
	ids := make([]dag.VertexID, 15) // 1-indexed like the figure
	for i := 1; i <= 14; i++ {
		ids[i] = b.Vertex(fmt.Sprintf("%d", i))
	}
	light := func(u, v int) { b.Light(ids[u], ids[v]) }
	// Spine 1-2-3 forks; heavy edges feed 4 and 9; components rejoin at 14
	// (edges reconstructed from the figure's layout).
	light(1, 2)
	light(2, 3)
	b.Heavy(ids[2], ids[4], 42) // the δ=42 edge drawn in the figure
	light(3, 5)
	light(3, 6)
	b.Heavy(ids[5], ids[9], 10)
	light(5, 10)
	light(4, 7)
	light(4, 8)
	light(7, 11)
	light(8, 13)
	light(11, 13)
	light(6, 12)
	light(9, 12)
	light(10, 14)
	light(13, 14)
	light(12, 14)
	g, err := b.Graph()
	if err != nil {
		t.Skipf("figure-6 reconstruction not a valid restricted dag: %v", err)
	}
	return g
}

// TestFigure6EnablingTree runs the Figure-6 dag and checks the quantities
// §4.1 derives from it: U = 2 (both heavy edges can cross one prefix) and
// the enabling span within the Corollary-1 bound, with the Lemma-2
// auditor active.
func TestFigure6EnablingTree(t *testing.T) {
	g := figure6Graph(t)
	if got := g.SuspensionWidth(); got != 2 {
		t.Fatalf("U = %d, want 2", got)
	}
	for _, p := range []int{1, 2, 3} {
		res, err := RunLHWS(g, Options{Workers: p, Seed: 14, CheckInvariants: true})
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		assertValidExecution(t, g, res)
		bound := int64(4 * float64(g.Span()) * 2) // 4·S·(1+lg 2)
		if res.Stats.EnablingSpan > bound {
			t.Errorf("P=%d: S* = %d > %d", p, res.Stats.EnablingSpan, bound)
		}
	}
}

func TestStatsString(t *testing.T) {
	s := Stats{Rounds: 10, UserWork: 5, StealAttempts: 3, StealSuccesses: 1}
	str := s.String()
	for _, want := range []string{"rounds=10", "work=5", "steals=1/3"} {
		if !strings.Contains(str, want) {
			t.Errorf("Stats.String missing %q: %s", want, str)
		}
	}
}

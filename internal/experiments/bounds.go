package experiments

import (
	"fmt"
	"math"

	"lhws/internal/sched"
	"lhws/internal/stats"
	"lhws/internal/workload"
)

// GreedyRow is one measurement of the Theorem-1 experiment.
type GreedyRow struct {
	Workload string
	P        int
	W, S     int64
	Rounds   int64
	Bound    int64 // W/P + S
	Fill     float64
}

// GreedyResult validates Theorem 1: every greedy schedule is within W/P+S.
type GreedyResult struct{ Rows []GreedyRow }

// Greedy runs the offline greedy scheduler over representative workloads
// and worker counts and compares schedule lengths against Theorem 1.
func Greedy(seed uint64) (*GreedyResult, error) {
	ws := []*workload.Workload{
		workload.Fib(14),
		workload.MapReduce(workload.MapReduceConfig{N: 64, Delta: 41, FibWork: 5}),
		workload.Server(workload.ServerConfig{Requests: 20, Delta: 31, FibWork: 5}),
		workload.Pipeline(workload.PipelineConfig{Items: 10, Stages: 4, StageWork: 6, Delta: 23}),
		workload.Random(workload.RandomConfig{Seed: seed, TargetVertices: 400, PHeavy: 0.3, MaxDelta: 30}),
	}
	res := &GreedyResult{}
	for _, w := range ws {
		for _, p := range []int{1, 2, 4, 8, 16, 32} {
			r, err := sched.RunGreedy(w.G, p)
			if err != nil {
				return nil, err
			}
			bound := sched.GreedyBound(w.G, p)
			res.Rows = append(res.Rows, GreedyRow{
				Workload: w.Name, P: p, W: w.G.Work(), S: w.G.Span(),
				Rounds: r.Stats.Rounds, Bound: bound,
				Fill: float64(r.Stats.Rounds) / float64(bound),
			})
		}
	}
	return res, nil
}

// Table renders measured length vs. the Theorem-1 bound.
func (r *GreedyResult) Table() *stats.Table {
	t := stats.NewTable("workload", "P", "W", "S", "rounds", "W/P+S", "rounds/bound")
	for _, row := range r.Rows {
		t.AddRowf(row.Workload, row.P, row.W, row.S, row.Rounds, row.Bound, row.Fill)
	}
	return t
}

// Check fails if any schedule exceeds its bound.
func (r *GreedyResult) Check() error {
	for _, row := range r.Rows {
		if row.Rounds > row.Bound {
			return fmt.Errorf("greedy: %s P=%d length %d > bound %d", row.Workload, row.P, row.Rounds, row.Bound)
		}
	}
	return nil
}

// BoundRow is one measurement of the Theorem-2 experiment.
type BoundRow struct {
	Workload string
	P        int
	W, S     int64
	U        int
	Rounds   int64
	Bound    float64 // W/P + S·U·(1+lg U), the Theorem-2 expression
	Ratio    float64 // rounds / bound: the implied constant
}

// BoundResult validates Theorem 2 empirically: the measured rounds divided
// by the bound expression stays below a small constant across workloads,
// worker counts, and suspension widths.
type BoundResult struct{ Rows []BoundRow }

// theorem2Expr evaluates W/P + S·max(U,1)·(1+lg max(U,1)).
func theorem2Expr(w, s int64, u int, p int) float64 {
	uu := float64(u)
	if uu < 1 {
		uu = 1
	}
	return float64(w)/float64(p) + float64(s)*uu*(1+math.Log2(uu))
}

// Bound sweeps workloads with widely varying U and measures the implied
// constant of Theorem 2.
func Bound(seed uint64) (*BoundResult, error) {
	ws := []*workload.Workload{
		workload.Fib(13),
		workload.MapReduce(workload.MapReduceConfig{N: 16, Delta: 33, FibWork: 5}),
		workload.MapReduce(workload.MapReduceConfig{N: 128, Delta: 33, FibWork: 5}),
		workload.Server(workload.ServerConfig{Requests: 24, Delta: 33, FibWork: 5}),
		workload.Pipeline(workload.PipelineConfig{Items: 12, Stages: 3, StageWork: 8, Delta: 21}),
		workload.Random(workload.RandomConfig{Seed: seed, TargetVertices: 500, PHeavy: 0.25, MaxDelta: 40}),
	}
	res := &BoundResult{}
	for _, w := range ws {
		u := w.G.SuspensionWidth()
		for _, p := range []int{1, 2, 4, 8, 16} {
			r, err := sched.RunLHWS(w.G, sched.Options{Workers: p, Seed: seed})
			if err != nil {
				return nil, err
			}
			bound := theorem2Expr(w.G.Work(), w.G.Span(), u, p)
			res.Rows = append(res.Rows, BoundRow{
				Workload: w.Name, P: p, W: w.G.Work(), S: w.G.Span(), U: u,
				Rounds: r.Stats.Rounds, Bound: bound,
				Ratio: float64(r.Stats.Rounds) / bound,
			})
		}
	}
	return res, nil
}

// Table renders the Theorem-2 measurements.
func (r *BoundResult) Table() *stats.Table {
	t := stats.NewTable("workload", "P", "W", "S", "U", "rounds", "W/P+SU(1+lgU)", "implied const")
	for _, row := range r.Rows {
		t.AddRowf(row.Workload, row.P, row.W, row.S, row.U, row.Rounds, row.Bound, row.Ratio)
	}
	return t
}

// Check fails if the implied constant exceeds a conservative threshold.
func (r *BoundResult) Check() error {
	for _, row := range r.Rows {
		if row.Ratio > 8 {
			return fmt.Errorf("bound: %s P=%d implied constant %.2f > 8", row.Workload, row.P, row.Ratio)
		}
	}
	return nil
}

// LemmaRow is one row of the structural-lemma experiment (Lemmas 1 and 7,
// Corollary 1, and the §5 suspension-width claims).
type LemmaRow struct {
	Workload     string
	P            int
	U            int
	AnalyticU    int
	MaxSuspended int
	MaxDeques    int
	Rounds       int64
	Lemma1Bound  int64
	EnablingSpan int64
	Cor1Bound    int64
}

// LemmaResult aggregates the structural invariants the analysis relies on.
type LemmaResult struct{ Rows []LemmaRow }

// Lemmas measures, per workload and P: observed suspension high-water mark
// vs U (Definition 1), deque high-water mark vs U+1 (Lemma 7), rounds vs
// the token bound (Lemma 1), and enabling span vs 2S(1+lg U)+slack
// (Corollary 1).
func Lemmas(seed uint64) (*LemmaResult, error) {
	ws := []*workload.Workload{
		workload.Fib(12),
		workload.MapReduce(workload.MapReduceConfig{N: 64, Delta: 29, FibWork: 4}),
		workload.Server(workload.ServerConfig{Requests: 16, Delta: 29, FibWork: 4}),
		workload.Pipeline(workload.PipelineConfig{Items: 8, Stages: 3, StageWork: 5, Delta: 17}),
	}
	res := &LemmaResult{}
	for _, w := range ws {
		u := w.G.SuspensionWidth()
		for _, p := range []int{1, 4, 16} {
			r, err := sched.RunLHWS(w.G, sched.Options{Workers: p, Seed: seed})
			if err != nil {
				return nil, err
			}
			lg := math.Log2(float64(u) + 1)
			res.Rows = append(res.Rows, LemmaRow{
				Workload: w.Name, P: p, U: u, AnalyticU: w.AnalyticU,
				MaxSuspended: r.Stats.MaxSuspended,
				MaxDeques:    r.Stats.MaxDequesPerWorker,
				Rounds:       r.Stats.Rounds,
				Lemma1Bound:  (4*w.G.Work()+r.Stats.StealAttempts)/int64(p) + 2,
				EnablingSpan: r.Stats.EnablingSpan,
				Cor1Bound:    int64(4 * float64(w.G.Span()) * (1 + lg)),
			})
		}
	}
	return res, nil
}

// Table renders the lemma measurements.
func (r *LemmaResult) Table() *stats.Table {
	t := stats.NewTable("workload", "P", "U", "maxSusp", "maxDeques(≤U+1)", "rounds", "lemma1", "S*", "cor1")
	for _, row := range r.Rows {
		t.AddRowf(row.Workload, row.P, row.U, row.MaxSuspended, row.MaxDeques,
			row.Rounds, row.Lemma1Bound, row.EnablingSpan, row.Cor1Bound)
	}
	return t
}

// Check fails on any violated invariant.
func (r *LemmaResult) Check() error {
	for _, row := range r.Rows {
		if row.MaxSuspended > row.U {
			return fmt.Errorf("lemmas: %s P=%d MaxSuspended %d > U %d", row.Workload, row.P, row.MaxSuspended, row.U)
		}
		if row.MaxDeques > row.U+1 {
			return fmt.Errorf("lemmas: %s P=%d MaxDeques %d > U+1 %d", row.Workload, row.P, row.MaxDeques, row.U+1)
		}
		if row.Rounds > row.Lemma1Bound {
			return fmt.Errorf("lemmas: %s P=%d rounds %d > Lemma-1 bound %d", row.Workload, row.P, row.Rounds, row.Lemma1Bound)
		}
		if row.EnablingSpan > row.Cor1Bound {
			return fmt.Errorf("lemmas: %s P=%d S* %d > Corollary-1 bound %d", row.Workload, row.P, row.EnablingSpan, row.Cor1Bound)
		}
		if row.AnalyticU >= 0 && row.AnalyticU != row.U {
			return fmt.Errorf("lemmas: %s analytic U %d != exact U %d", row.Workload, row.AnalyticU, row.U)
		}
	}
	return nil
}

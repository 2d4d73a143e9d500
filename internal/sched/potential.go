package sched

import (
	"fmt"
	"math/big"

	"lhws/internal/dag"
)

// PotentialTrace records the §4.1 potential function Φ over an LHWS
// execution. The potential of a vertex v with enabling-tree weight
// w(v) = S* − d(v) is 3^{2w(v)−1} while assigned and 3^{2w(v)} while
// queued; a non-active deque with suspended vertices carries the extra
// potential φᴱ = 2·3^{2w(v)−2j} keyed to its bottom (or last executed)
// vertex v and the j rounds elapsed since it was added (or executed).
//
// The analysis (Lemmas 4, 5, 8) uses Φ to bound steal attempts: the total
// potential starts at 3^{2S*−1}, never grows past its starting value, and
// is driven to zero, with each phase of Θ(PU) steal attempts removing a
// constant fraction. Σ here validates the observable parts:
//
//   - Φ_0 = 3^{2S*−1} and Φ_final = 0;
//   - Φ_i ≤ Φ_0 for all rounds i;
//   - Φ decreases in the overwhelming majority of rounds. Exact per-round
//     monotonicity (Lemma 5) depends on φᴱ bookkeeping details spelled out
//     only in the companion technical report; the trace reports the rounds
//     where the observable Φ grew (Increases) together with the largest
//     growth ratio so experiments can bound them.
//
// Computing Φ is O(total queue contents) per round with big-rational
// arithmetic (weights can go negative in 2w−2j); use it on small runs.
type PotentialTrace struct {
	// SStar is the enabling span used for weights (from a first pass).
	SStar int64
	// Initial and Final are Φ at the first and last round boundary.
	Initial, Final *big.Rat
	// MaxOverInitial is max_i Φ_i / Φ_0.
	MaxOverInitial float64
	// Rounds is the number of round boundaries sampled.
	Rounds int64
	// Increases counts boundaries where Φ grew relative to the previous
	// boundary; MaxIncreaseRatio is the largest such growth factor.
	Increases        int64
	MaxIncreaseRatio float64
	// DecreaseFraction is the fraction of boundaries with strictly
	// decreasing Φ.
	DecreaseFraction float64
}

// TracePotential runs the dag twice with identical options: the first pass
// measures the enabling span S*, the second recomputes Φ at every round
// boundary (determinism makes the passes identical). LHWS only.
func TracePotential(g *dag.Graph, opt Options) (*PotentialTrace, error) {
	first, err := RunLHWS(g, opt)
	if err != nil {
		return nil, err
	}
	sstar := first.Stats.EnablingSpan

	o, err := opt.withDefaults(g)
	if err != nil {
		return nil, err
	}
	s := newLHWSSim(g, o)
	pt := &potentialTracker{sstar: sstar, pow: map[int64]*big.Rat{}}
	s.potential = pt
	if _, err := s.run(); err != nil {
		return nil, err
	}

	tr := &PotentialTrace{
		SStar:            sstar,
		Initial:          pt.initial,
		Final:            pt.last,
		MaxOverInitial:   pt.maxOverInitial,
		Rounds:           pt.rounds,
		Increases:        pt.increases,
		MaxIncreaseRatio: pt.maxIncrease,
	}
	if pt.rounds > 0 {
		tr.DecreaseFraction = float64(pt.decreases) / float64(pt.rounds)
	}
	return tr, nil
}

// potentialTracker accumulates Φ statistics during a run.
type potentialTracker struct {
	sstar          int64
	pow            map[int64]*big.Rat // 3^k cache, k may be negative
	initial, last  *big.Rat
	prev           *big.Rat
	rounds         int64
	increases      int64
	decreases      int64
	maxIncrease    float64
	maxOverInitial float64
}

// pow3 returns 3^k as a big.Rat, caching results.
func (p *potentialTracker) pow3(k int64) *big.Rat {
	if r, ok := p.pow[k]; ok {
		return r
	}
	var r *big.Rat
	if k >= 0 {
		r = new(big.Rat).SetInt(new(big.Int).Exp(big.NewInt(3), big.NewInt(k), nil))
	} else {
		den := new(big.Int).Exp(big.NewInt(3), big.NewInt(-k), nil)
		r = new(big.Rat).SetFrac(big.NewInt(1), den)
	}
	p.pow[k] = r
	return r
}

// weight returns w = S* − d for an enabling depth d.
func (p *potentialTracker) weight(d int64) int64 { return p.sstar - d }

// sample computes Φ at a round boundary from the simulator state.
func (p *potentialTracker) sample(s *lhwsSim) {
	phi := new(big.Rat)
	for _, w := range s.workers {
		if w.assigned != nil {
			phi.Add(phi, p.pow3(2*p.weight(w.assigned.depth)-1))
		}
	}
	for _, q := range s.gDeques {
		if q.state == dqFreed {
			continue
		}
		for _, n := range q.items {
			phi.Add(phi, p.pow3(2*p.weight(n.depth)))
		}
		// Extra potential of non-active deques with suspended vertices.
		if q.state != dqActive && q.suspendCtr > 0 {
			var w2j int64
			if len(q.items) > 0 {
				b := q.items[len(q.items)-1]
				w2j = 2*p.weight(b.depth) - 2*(s.round-b.addedRound)
			} else {
				w2j = 2*p.weight(q.lastExecDepth) - 2*(s.round-q.lastExecRound)
			}
			extra := new(big.Rat).Add(p.pow3(w2j), p.pow3(w2j))
			phi.Add(phi, extra)
		}
	}

	p.rounds++
	if p.initial == nil {
		p.initial = new(big.Rat).Set(phi)
		p.maxOverInitial = 1
	} else {
		ratio, _ := new(big.Rat).Quo(phi, p.initial).Float64()
		if ratio > p.maxOverInitial {
			p.maxOverInitial = ratio
		}
		switch phi.Cmp(p.prev) {
		case 1:
			p.increases++
			if p.prev.Sign() > 0 {
				inc, _ := new(big.Rat).Quo(phi, p.prev).Float64()
				if inc > p.maxIncrease {
					p.maxIncrease = inc
				}
			}
		case -1:
			p.decreases++
		}
	}
	p.prev = phi
	p.last = phi
}

// CheckPotential validates the observable potential-function claims on the
// trace, returning an error naming the first violated property.
func (t *PotentialTrace) CheckPotential() error {
	// Φ_0 = 3^{2S*−1}: only the assigned root, at depth 0.
	want := new(big.Rat).SetInt(new(big.Int).Exp(big.NewInt(3), big.NewInt(2*t.SStar-1), nil))
	if t.Initial.Cmp(want) != 0 {
		return fmt.Errorf("potential: Φ_0 = %s, want 3^(2S*-1) with S*=%d", t.Initial.FloatString(3), t.SStar)
	}
	if t.Final.Sign() != 0 {
		return fmt.Errorf("potential: Φ_final = %s, want 0", t.Final.FloatString(3))
	}
	if t.MaxOverInitial > 1 {
		return fmt.Errorf("potential: Φ exceeded its initial value (%.3f×)", t.MaxOverInitial)
	}
	if t.DecreaseFraction < 0.5 {
		return fmt.Errorf("potential: Φ decreased on only %.0f%% of rounds", 100*t.DecreaseFraction)
	}
	return nil
}

package sched

import (
	"fmt"
	"math"

	"lhws/internal/dag"
)

// auditor checks, during an LHWS execution, the executable invariants of
// the paper's analysis (Lemma 2):
//
//   - Condition 1: every executed dag vertex sits at enabling-tree depth
//     d(v) ≤ (2 + lg U)·dG(v) (plus a small additive slack for the pfor
//     batch of its resume, bounded by lg U + 1). This is the per-vertex
//     form of Corollary 1.
//
//   - Condition 5: within every deque, enabling-tree depths strictly
//     decrease from bottom to top, and the assigned vertex is at least as
//     deep as the bottom of its deque. This ordering is what makes deques
//     "top-heavy" (Lemma 3): with weights w = S*−d strictly increasing
//     toward the top, the top vertex carries at least
//     1 − Σ_{k≥1} 9^{-k} = 7/8 ≥ 2/3 of the deque's item potential.
//
// The full potential-function argument (Lemmas 4 and 5) additionally uses
// the extra potential φᴱ of suspended deques, whose exact bookkeeping
// lives in the companion technical report; the two conditions above are
// the parts of the argument observable from the scheduler state alone.
//
// Auditing costs O(total deque contents) per round; enable it in tests and
// experiments, not in performance measurements.
type auditor struct {
	dG     []int64
	factor float64 // 2 + lg(max(U,1))
	slack  float64 // lg(max(U,1)) + 2, pfor-batch and rounding slack
	err    error
}

func newAuditor(g *dag.Graph) *auditor {
	u := g.SuspensionWidth()
	lg := 0.0
	if u > 1 {
		lg = math.Log2(float64(u))
	}
	return &auditor{
		dG:     g.Depths(),
		factor: 2 + lg,
		slack:  lg + 2,
	}
}

// recordExec checks Lemma 2 condition 1 for a dag vertex executing at
// enabling depth d.
func (a *auditor) recordExec(v dag.VertexID, d int64) {
	if a.err != nil {
		return
	}
	bound := a.factor*float64(a.dG[v]) + a.slack
	if float64(d) > bound {
		a.err = fmt.Errorf("sched: Lemma 2(1) violated: vertex %d at enabling depth %d > (2+lgU)·dG+slack = %.1f (dG=%d)",
			v, d, bound, a.dG[v])
	}
}

// checkRound verifies Lemma 2 condition 5 over all deques at a round
// boundary.
func (a *auditor) checkRound(s *lhwsSim) {
	if a.err != nil {
		return
	}
	for _, q := range s.gDeques {
		if q.state == dqFreed {
			continue
		}
		// items[0] is the top; depths must strictly increase toward the
		// bottom (end of slice).
		for i := 1; i < len(q.items); i++ {
			if q.items[i].depth <= q.items[i-1].depth {
				a.err = fmt.Errorf("sched: Lemma 2(5) violated in deque %d: depth %d at position %d not above %d below it (round %d)",
					q.id, q.items[i-1].depth, i-1, q.items[i].depth, s.round)
				return
			}
		}
	}
	for _, w := range s.workers {
		if w.assigned == nil || w.active == nil || len(w.active.items) == 0 {
			continue
		}
		bottom := w.active.items[len(w.active.items)-1]
		if w.assigned.depth < bottom.depth {
			a.err = fmt.Errorf("sched: Lemma 2(5) violated: worker %d assigned depth %d above its deque bottom %d (round %d)",
				w.id, w.assigned.depth, bottom.depth, s.round)
			return
		}
	}
}

package sched

import (
	"fmt"

	"lhws/internal/dag"
	"lhws/internal/rng"
)

// RunLHWS executes the dag with the latency-hiding work-stealing scheduler
// of Figure 3 on opt.Workers simulated workers and returns the execution
// result. The simulation is round-synchronous: each round, every worker
// performs one iteration of the scheduling loop (execute an assigned
// vertex, or switch deques, or attempt a steal), which is the unit-cost
// model of the paper's analysis. Runs are deterministic given opt.Seed.
func RunLHWS(g *dag.Graph, opt Options) (*Result, error) { return runSim(g, opt, false) }

// RunWS executes the dag with standard (non-latency-hiding) work stealing,
// the baseline labeled "WS" in the paper's Figure 11. It is the RunLHWS
// engine with one rule changed: when an executed vertex enables a child
// over a heavy edge, the worker busy-waits for the full latency and then
// continues with that child, as a conventional runtime does when a task
// performs synchronous I/O. Nothing suspends, so each worker keeps its one
// deque, never switches and never injects a pfor tree; the blocked
// worker's deque remains stealable. Thieves pick a random victim worker
// and take the top of its deque: opt.Policy is forced to
// StealWorkerThenDeque, and opt.Variant has no effect.
func RunWS(g *dag.Graph, opt Options) (*Result, error) {
	opt.Policy = StealWorkerThenDeque
	return runSim(g, opt, true)
}

func runSim(g *dag.Graph, opt Options, blocking bool) (*Result, error) {
	o, err := opt.withDefaults(g)
	if err != nil {
		return nil, err
	}
	s := newLHWSSim(g, o)
	s.blocking = blocking
	return s.run()
}

// timerEvent is a pending heavy-edge expiry: at its round, vertex v resumes
// and is returned to deque q via callback (Figure 3, lines 1-5).
type timerEvent struct {
	v dag.VertexID
	q *ldeque
}

type lhwsWorker struct {
	id       int
	rnd      *rng.RNG
	active   *ldeque
	ready    []*ldeque // readyDeques set (removeAny pops the last)
	resumed  []*ldeque // resumedDeques set
	empty    []*ldeque // emptyDeques free list (Figure 5)
	assigned *node
	live     int // allocated (non-freed) deques owned, for Lemma 7
	// blockedUntil is the first round at which a RunWS worker may run
	// again; pending holds the heavy-edge children it then continues with,
	// last pushed first (at most two: a vertex has out-degree ≤ 2).
	blockedUntil int64
	pending      []*node
}

type lhwsSim struct {
	g        *dag.Graph
	opt      Options
	blocking bool // RunWS: heavy edges block the worker instead of suspending

	round     int64
	joinLeft  []int32 // unexecuted parents per vertex
	execRound []int64
	remaining int64

	workers []*lhwsWorker
	gDeques []*ldeque // global deque array (Figure 5)
	timers  map[int64][]timerEvent

	curSuspended   int
	queuedItems    int64 // items across all deques, for stuck detection
	pendingResumed int64 // resumed vertices not yet re-injected
	stats          Stats
	rnd            *rng.RNG          // round-level permutation stream
	audit          *auditor          // non-nil iff Options.CheckInvariants
	potential      *potentialTracker // non-nil during TracePotential
}

func newLHWSSim(g *dag.Graph, opt Options) *lhwsSim {
	n := g.NumVertices()
	s := &lhwsSim{
		g:         g,
		opt:       opt,
		joinLeft:  make([]int32, n),
		execRound: make([]int64, n),
		remaining: int64(n),
		timers:    make(map[int64][]timerEvent),
		rnd:       rng.New(opt.Seed),
	}
	for v := 0; v < n; v++ {
		s.joinLeft[v] = int32(g.InDegree(dag.VertexID(v)))
		s.execRound[v] = -1
	}
	if opt.CheckInvariants {
		s.audit = newAuditor(g)
	}
	s.workers = make([]*lhwsWorker, opt.Workers)
	for i := range s.workers {
		w := &lhwsWorker{id: i, rnd: s.rnd.Split()}
		s.workers[i] = w
		w.active = s.newDeque(w) // initial deque (Figure 3, line 26)
	}
	// Assign the root to worker zero (Figure 3, lines 27-28).
	s.workers[0].assigned = &node{v: g.Root(), depth: 0}
	return s
}

func (s *lhwsSim) run() (*Result, error) {
	p := len(s.workers)
	hadAssigned := make([]bool, p)
	avail := make([]bool, p)
	perm := make([]int, p)
	for s.remaining > 0 {
		if s.round >= s.opt.MaxRounds {
			return nil, ErrRoundLimit
		}
		if s.potential != nil {
			s.potential.sample(s)
		}
		s.fireTimers()

		// Multiprogrammed environments: the OS grants only some workers
		// this round; the grant set is sampled uniformly.
		grant := p
		if s.opt.Available != nil {
			grant = s.opt.Available(s.round)
			if grant < 1 {
				grant = 1
			}
			if grant > p {
				grant = p
			}
		}
		for i := range perm {
			perm[i] = i
		}
		s.rnd.Shuffle(p, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		for idx, i := range perm {
			avail[i] = idx < grant
		}
		s.stats.DescheduledRounds += int64(p - grant)

		// Workers that begin the round with an assigned vertex execute it;
		// the rest switch or steal. Splitting the phases keeps the round
		// semantics of the single loop in Figure 3 while making concurrent
		// steals deterministic: executors act in index order (their effects
		// are local to their own deques), then acquirers act in a random
		// permutation so no worker has a systematic arbitration advantage.
		// A blocked RunWS worker does neither; once its latency expires it
		// continues with its pending children.
		executed := false
		for i, w := range s.workers {
			if w.assigned == nil && w.blockedUntil <= s.round {
				w.assigned = s.popPending(w)
			}
			hadAssigned[i] = avail[i] && w.assigned != nil
			executed = executed || hadAssigned[i]
		}
		for i, w := range s.workers {
			switch {
			case hadAssigned[i]:
				s.executeStep(w)
			case avail[i] && w.blockedUntil > s.round:
				s.stats.BlockedRounds++
				if s.opt.Tracer != nil {
					s.opt.Tracer.Record(s.round, w.id, ActionBlocked)
				}
			}
		}
		if s.remaining == 0 {
			s.round++
			break
		}
		for _, i := range perm {
			if w := s.workers[i]; avail[i] && !hadAssigned[i] && w.blockedUntil <= s.round {
				s.acquireStep(w)
			}
		}
		s.round++

		if s.audit != nil {
			s.audit.checkRound(s)
			if s.audit.err != nil {
				return nil, fmt.Errorf("%w: %v", ErrInvariant, s.audit.err)
			}
		}
		// curSuspended counts both pending timers and blocked-on children.
		if !executed && s.curSuspended == 0 && s.queuedItems == 0 && s.pendingResumed == 0 &&
			s.remaining > 0 && s.noneAssigned() {
			return nil, ErrStuck
		}
	}
	if s.audit != nil && s.audit.err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvariant, s.audit.err)
	}
	if s.potential != nil {
		s.potential.sample(s) // final boundary: Φ must be zero
	}
	s.stats.Rounds = s.round
	return &Result{Stats: s.stats, ExecRound: s.execRound}, nil
}

func (s *lhwsSim) noneAssigned() bool {
	for _, w := range s.workers {
		if w.assigned != nil {
			return false
		}
	}
	return true
}

// fireTimers resumes every suspended vertex whose latency expires this
// round, running its callback (Figure 3, lines 1-5): append to the deque's
// resumedVertices, decrement the suspension counter, and register the deque
// in its owner's resumedDeques set.
func (s *lhwsSim) fireTimers() {
	evs, ok := s.timers[s.round]
	if !ok {
		return
	}
	delete(s.timers, s.round)
	for _, ev := range evs {
		q := ev.q
		q.resumed = append(q.resumed, resumedEntry{v: ev.v})
		q.suspendCtr--
		q.frozen = false // VariantSuspendDeque: a resume thaws the deque
		s.curSuspended--
		s.pendingResumed++
		if !q.inResumedSet {
			q.inResumedSet = true
			w := s.workers[q.owner]
			w.resumed = append(w.resumed, q)
		}
	}
}

// executeStep runs Figure 3 lines 33-40 for one worker: execute the
// assigned vertex, handle the right child, inject resumed vertices, handle
// the left child, then pop the next assigned vertex from the active deque
// (under RunWS, an expired pending child comes first).
func (s *lhwsSim) executeStep(w *lhwsWorker) {
	n := w.assigned
	w.assigned = nil
	q := w.active
	if q != nil {
		q.lastExecDepth = n.depth
		q.lastExecRound = s.round
	}

	if n.pfor == nil {
		s.executeUser(w, n)
		if s.opt.Tracer != nil {
			s.opt.Tracer.Record(s.round, w.id, ActionWork)
		}
	} else {
		s.executePfor(w, n)
		if s.opt.Tracer != nil {
			s.opt.Tracer.Record(s.round, w.id, ActionPfor)
		}
	}

	if w.blockedUntil > s.round {
		return // RunWS: the worker holds until its latency expires
	}
	w.assigned = s.popPending(w)
	if w.assigned == nil && w.active != nil && !w.active.frozen {
		w.assigned = s.pop(w.active)
	}
}

// popPending returns the child a RunWS worker blocked on most recently,
// or nil if it has none.
func (s *lhwsSim) popPending(w *lhwsWorker) *node {
	n := len(w.pending)
	if n == 0 {
		return nil
	}
	nd := w.pending[n-1]
	w.pending = w.pending[:n-1]
	s.curSuspended--
	return nd
}

// executeUser executes a dag vertex and handles its children in the
// right / resumed / left priority order.
//
// Enabling-tree depths follow the exact construction of §4.1: the right
// child hangs directly off the executed vertex (depth+1); if a pfor tree
// is injected into the active deque in the same step and a left child
// exists, an auxiliary vertex u′ is interposed so both the pfor root and
// the left child sit at depth+2 (Figure 6(d)); without a left child the
// pfor root hangs directly at depth+1.
func (s *lhwsSim) executeUser(w *lhwsWorker, n *node) {
	v := n.v
	if s.execRound[v] >= 0 {
		panic("sched: vertex executed twice (scheduler bug)")
	}
	s.execRound[v] = s.round
	s.stats.UserWork++
	s.remaining--
	if n.depth > s.stats.EnablingSpan {
		s.stats.EnablingSpan = n.depth
	}
	if s.audit != nil {
		s.audit.recordExec(v, n.depth)
	}

	edges := s.g.OutEdges(v)
	var left, right *dag.OutEdge
	if len(edges) > 0 {
		left = &edges[0]
	}
	if len(edges) > 1 {
		right = &edges[1]
	}
	if right != nil {
		s.handleChild(w, n.depth+1, *right)
	}
	injected := s.addResumedVertices(w, n, left != nil)
	if left != nil {
		leftDepth := n.depth + 1
		if injected {
			leftDepth = n.depth + 2 // through the auxiliary vertex u′
		}
		s.handleChild(w, leftDepth, *left)
	}
}

// handleChild implements Figure 3 lines 16-22: when executing a vertex
// enables a child, the child is either suspended (heavy in-edge: install a
// callback and bump the active deque's suspension counter) or pushed onto
// the bottom of the active deque at the given enabling-tree depth. Under
// RunWS a heavy in-edge instead blocks the worker until the latency
// expires, with the child pending at the same depth.
func (s *lhwsSim) handleChild(w *lhwsWorker, depth int64, e dag.OutEdge) {
	s.joinLeft[e.To]--
	if s.joinLeft[e.To] > 0 {
		return // not yet enabled: another parent is outstanding
	}
	if !e.Heavy() {
		s.push(w.active, &node{v: e.To, depth: depth, addedRound: s.round})
		return
	}
	s.curSuspended++
	if s.curSuspended > s.stats.MaxSuspended {
		s.stats.MaxSuspended = s.curSuspended
	}
	at := s.round + e.Weight
	if s.blocking {
		w.pending = append(w.pending, &node{v: e.To, depth: depth, addedRound: s.round})
		w.blockedUntil = max(w.blockedUntil, at)
		return
	}
	q := w.active
	q.suspendCtr++
	if s.opt.Variant == VariantSuspendDeque {
		// §7 ablation: freeze the whole deque until a resume.
		q.frozen = true
	}
	s.timers[at] = append(s.timers[at], timerEvent{v: e.To, q: q})
}

// executePfor executes a pfor-tree internal vertex: split the range of
// resumed vertices in two, pushing the right half then the left half
// (singleton halves collapse directly to their user vertex). Depths follow
// the same auxiliary-vertex rule as executeUser.
func (s *lhwsSim) executePfor(w *lhwsWorker, n *node) {
	s.stats.PforWork++
	mid := n.lo + (n.hi-n.lo)/2
	s.push(w.active, s.pforChild(n, mid, n.hi, n.depth+1))
	injected := s.addResumedVertices(w, n, true)
	leftDepth := n.depth + 1
	if injected {
		leftDepth = n.depth + 2
	}
	s.push(w.active, s.pforChild(n, n.lo, mid, leftDepth))
}

func (s *lhwsSim) pforChild(parent *node, lo, hi int, depth int64) *node {
	if hi-lo == 1 {
		return &node{v: parent.pfor[lo].v, depth: depth, addedRound: s.round}
	}
	return &node{pfor: parent.pfor, lo: lo, hi: hi, depth: depth, addedRound: s.round}
}

// addResumedVertices implements Figure 3 lines 7-14: for every owned deque
// with newly resumed vertices, push one vertex encapsulating a
// parallel-for over the batch (a single resumed vertex is pushed directly)
// and mark the deque ready, following the §4.1 depth rules.
// cur is the vertex being executed when called mid-step (nil at a deque
// switch or steal); leftPending reports whether cur will also enable a
// left child, which determines whether the pfor root pushed onto the
// active deque hangs off cur directly (depth+1) or via an auxiliary vertex
// (depth+2, Figure 6(d)). It returns whether a node was pushed onto the
// active deque.
func (s *lhwsSim) addResumedVertices(w *lhwsWorker, cur *node, leftPending bool) bool {
	injectedActive := false
	if len(w.resumed) == 0 {
		return false
	}
	for _, q := range w.resumed {
		target := q
		var d int64
		if s.opt.Variant == VariantResumeNewDeque {
			// §7 ablation: every resumed batch starts a fresh deque.
			d = s.pforRootDepth(q)
			target = s.newDeque(w)
			target.state = dqReady
			w.ready = append(w.ready, target)
		} else if q == w.active && cur != nil {
			d = cur.depth + 1
			if leftPending {
				d = cur.depth + 2
			}
			injectedActive = true
		} else {
			d = s.pforRootDepth(q)
		}
		var nd *node
		if len(q.resumed) == 1 {
			nd = &node{v: q.resumed[0].v, depth: d, addedRound: s.round}
		} else {
			nd = &node{pfor: q.resumed, lo: 0, hi: len(q.resumed), depth: d, addedRound: s.round}
		}
		s.push(target, nd)
		s.pendingResumed -= int64(len(q.resumed))
		q.resumed = nil
		q.inResumedSet = false
		if target != w.active && target.state != dqReady {
			target.state = dqReady
			w.ready = append(w.ready, target)
		}
		if target != q && q != w.active && q.empty() && q.suspendCtr == 0 && q.state == dqSuspended {
			// The original deque is fully drained and owns nothing; recycle
			// it (the resume-new-deque variant would otherwise leak it).
			q.state = dqFreed
			w.empty = append(w.empty, q)
			w.live--
		}
	}
	w.resumed = w.resumed[:0]
	return injectedActive
}

// pforRootDepth computes the enabling-tree depth at which a pfor root is
// inserted, following the auxiliary-chain construction of §4.1: the depth
// of the deque's bottom vertex (or, if empty, its last executed vertex)
// plus one auxiliary vertex per intervening round.
func (s *lhwsSim) pforRootDepth(q *ldeque) int64 {
	if len(q.items) > 0 {
		b := q.items[len(q.items)-1]
		return b.depth + (s.round - b.addedRound)
	}
	return q.lastExecDepth + (s.round - q.lastExecRound)
}

// acquireStep runs Figure 3 lines 41-56 for a worker with no assigned
// vertex: retire the drained active deque, then switch to an owned ready
// deque if one exists, otherwise attempt to steal from a random deque.
func (s *lhwsSim) acquireStep(w *lhwsWorker) {
	if w.active != nil {
		q := w.active
		switch {
		case q.frozen:
			// VariantSuspendDeque: the whole deque is out of service until
			// a resume thaws it.
			q.state = dqSuspended
		case !q.empty():
			// Defensive: the active deque can only be non-empty here if a
			// resumed batch was injected after the last pop; take from it.
			w.assigned = s.pop(q)
			return
		case q.suspendCtr == 0 && !q.inResumedSet:
			// Figure 3 lines 42-43, with one divergence from the paper's
			// pseudocode: a deque whose resumed vertices have not yet been
			// injected (inResumedSet) must not be freed, or the pending
			// pfor push would land on a recycled deque.
			q.state = dqFreed
			w.empty = append(w.empty, q)
			w.live--
		default:
			q.state = dqSuspended
		}
		w.active = nil
	}

	if n := len(w.ready); n > 0 {
		// Deque switch (Figure 3 lines 46-48).
		q := w.ready[n-1]
		w.ready = w.ready[:n-1]
		q.state = dqActive
		w.active = q
		s.stats.Switches++
		if s.opt.Tracer != nil {
			s.opt.Tracer.Record(s.round, w.id, ActionSwitch)
		}
		s.addResumedVertices(w, nil, false)
		w.assigned = s.pop(w.active)
		return
	}

	// Steal attempt (Figure 3 lines 49-56).
	s.stats.StealAttempts++
	victim := s.pickVictim(w)
	var stolen *node
	if victim != nil && !victim.frozen {
		stolen = victim.popTop()
	}
	if stolen != nil {
		s.queuedItems--
		s.stats.StealSuccesses++
		w.active = s.newDeque(w)
		w.assigned = stolen
	}
	if s.opt.Tracer != nil {
		a := ActionStealMiss
		if stolen != nil {
			a = ActionStealHit
		}
		s.opt.Tracer.Record(s.round, w.id, a)
	}
	s.addResumedVertices(w, nil, false)
	if w.assigned == nil && w.active != nil {
		w.assigned = s.pop(w.active)
	}
}

// pickVictim selects a steal victim according to the configured policy.
func (s *lhwsSim) pickVictim(w *lhwsWorker) *ldeque {
	switch s.opt.Policy {
	case StealWorkerThenDeque:
		// §6 policy: choose a victim worker, then one of its ready deques
		// (the active deque included — its top is the oldest frame, the
		// standard steal target).
		if len(s.workers) == 1 {
			return nil
		}
		vi := w.rnd.Intn(len(s.workers) - 1)
		if vi >= w.id {
			vi++
		}
		vw := s.workers[vi]
		candidates := make([]*ldeque, 0, len(vw.ready)+1)
		if vw.active != nil && !vw.active.empty() && !vw.active.frozen {
			candidates = append(candidates, vw.active)
		}
		for _, q := range vw.ready {
			if !q.empty() && !q.frozen {
				candidates = append(candidates, q)
			}
		}
		switch len(candidates) {
		case 0:
			return nil
		case 1:
			// No draw: a steal from a one-deque worker (every RunWS
			// steal) costs exactly the victim-worker draw.
			return candidates[0]
		}
		return candidates[w.rnd.Intn(len(candidates))]
	default:
		// Paper policy: uniform over the global deque array, freed and
		// empty deques included (those attempts simply fail).
		if len(s.gDeques) == 0 {
			return nil
		}
		return s.gDeques[w.rnd.Intn(len(s.gDeques))]
	}
}

// newDeque implements Figure 5: reuse a previously freed deque if the
// worker has one, otherwise append a fresh deque to the global array.
func (s *lhwsSim) newDeque(w *lhwsWorker) *ldeque {
	var q *ldeque
	if n := len(w.empty); n > 0 {
		q = w.empty[n-1]
		w.empty = w.empty[:n-1]
	} else {
		q = &ldeque{id: len(s.gDeques), owner: w.id}
		s.gDeques = append(s.gDeques, q)
		s.stats.TotalDequesAllocated++
	}
	q.state = dqActive
	q.frozen = false
	q.lastExecDepth = 0
	q.lastExecRound = s.round
	w.live++
	if w.live > s.stats.MaxDequesPerWorker {
		s.stats.MaxDequesPerWorker = w.live
	}
	return q
}

func (s *lhwsSim) push(q *ldeque, n *node) {
	q.pushBottom(n)
	s.queuedItems++
}

func (s *lhwsSim) pop(q *ldeque) *node {
	n := q.popBottom()
	if n != nil {
		s.queuedItems--
	}
	return n
}

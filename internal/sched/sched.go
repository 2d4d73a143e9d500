// Package sched implements the paper's primary contribution: the
// latency-hiding work-stealing (LHWS) scheduler of Muller & Acar
// (SPAA 2016), alongside the baselines it is evaluated against.
//
// Three schedulers execute weighted computation dags (package dag) on P
// simulated workers in discrete, synchronous rounds, each round costing one
// unit of time per worker — the cost model under which the paper states its
// bounds:
//
//   - RunLHWS: the Figure-3 algorithm. Each worker owns a growable
//     collection of deques, one active at a time. A vertex enabled over a
//     heavy edge suspends and is paired with the active deque; a callback
//     fires when its latency expires, and resumed vertices are re-injected
//     in bulk through pfor trees pushed onto the owning deque. Thieves
//     target a uniformly random deque (not worker) and start a fresh deque
//     on success. Expected time O(W/P + S·U·(1+lg U)).
//
//   - RunWS: standard non-preemptive work stealing, the baseline labeled
//     "WS" in the paper's Figure 11. It is the RunLHWS engine with one rule
//     changed: a heavy edge blocks its worker for the full latency — the
//     worker busy-waits, hiding nothing — instead of suspending the child,
//     so each worker keeps one deque and thieves pick a random worker.
//
//   - RunGreedy: the offline greedy scheduler of Theorem 1, which executes
//     as many ready vertices as possible each round and achieves length
//     ≤ W/P + S on weighted dags.
//
// All schedulers are deterministic given Options.Seed, making experiments
// and regression tests reproducible.
package sched

import (
	"errors"
	"fmt"

	"lhws/internal/dag"
)

// StealPolicy selects how thieves pick victims in RunLHWS.
type StealPolicy int

const (
	// StealRandomDeque is the paper's analyzed policy: the victim deque is
	// chosen uniformly at random from all deques ever allocated (freed
	// deques included, so some attempts fail by construction).
	StealRandomDeque StealPolicy = iota
	// StealWorkerThenDeque is the implementation policy of §6: pick a
	// random victim worker, then a random deque among that worker's ready
	// (and active) deques, reducing failed steals.
	StealWorkerThenDeque
)

func (p StealPolicy) String() string {
	switch p {
	case StealRandomDeque:
		return "random-deque"
	case StealWorkerThenDeque:
		return "worker-then-deque"
	default:
		return fmt.Sprintf("StealPolicy(%d)", int(p))
	}
}

// Options configures a simulated execution.
type Options struct {
	// Workers is P, the number of simulated workers. Must be ≥ 1.
	Workers int
	// Seed drives all randomized decisions. Runs with equal seeds and
	// options are bit-for-bit identical.
	Seed uint64
	// Policy selects the steal-victim policy of RunLHWS. RunWS sets it to
	// StealWorkerThenDeque.
	Policy StealPolicy
	// MaxRounds aborts runaway executions. Zero selects a generous default
	// derived from the dag's work and total latency.
	MaxRounds int64
	// Tracer, when non-nil, receives one Action per worker per round.
	// Tracing a long execution is memory-heavy; see internal/trace for
	// collectors.
	Tracer Tracer
	// CheckInvariants audits the analysis invariants of Lemma 2 (enabling
	// depth bound and deque depth ordering) every round, aborting with
	// ErrInvariant on the first violation. RunLHWS and RunWS; costs
	// O(queue contents) per round.
	CheckInvariants bool
	// Variant selects the suspension-handling strategy of RunLHWS; the
	// non-default variants implement the prior multi-deque designs the
	// paper's related work (§7) contrasts against. RunWS ignores it:
	// nothing suspends there.
	Variant Variant
	// Available, when non-nil, simulates a multiprogrammed environment
	// (the Arora–Blumofe–Plaxton setting the paper's dedicated-environment
	// analysis simplifies): it returns how many of the P workers the OS
	// grants in a given round (clamped to [1, Workers]); the scheduler
	// picks which workers run uniformly at random. Latency timers keep
	// running while workers are descheduled, as real I/O would. The
	// function must be deterministic in its argument for runs to be
	// reproducible. RunLHWS and RunWS.
	Available func(round int64) int
}

// Variant selects how RunLHWS handles suspension and resumption, enabling
// ablations against the prior multi-deque designs discussed in §7
// (Spoonhower's dissertation variants).
type Variant int8

const (
	// VariantPaper is the paper's algorithm: a suspended vertex is paired
	// with the active deque, which remains stealable; resumed vertices
	// return to their deque; new deques are created only on steals.
	VariantPaper Variant = iota
	// VariantSuspendDeque suspends the entire active deque when a vertex
	// suspends: its remaining items are frozen (not stealable, not
	// runnable) until a suspended vertex resumes. This is the "suspend the
	// whole deque" design §7 contrasts; it wastes the frozen work.
	VariantSuspendDeque
	// VariantResumeNewDeque creates a fresh deque for every resumed batch
	// instead of returning it to its original deque — the "new deque on
	// resume" design of §7. It breaks the U+1 deque bound of Lemma 7.
	VariantResumeNewDeque
)

func (v Variant) String() string {
	switch v {
	case VariantPaper:
		return "paper"
	case VariantSuspendDeque:
		return "suspend-deque"
	case VariantResumeNewDeque:
		return "resume-new-deque"
	default:
		return fmt.Sprintf("Variant(%d)", int8(v))
	}
}

// Action describes what one worker did in one round, for tracing.
type Action int8

// Worker actions recorded by a Tracer. They correspond to the token
// buckets of Lemma 1 (work, switch, steal) plus the baseline's blocked
// state and the idle state.
const (
	ActionIdle      Action = iota // never recorded: marks a cell with no recorded action
	ActionWork                    // executed a dag vertex
	ActionPfor                    // executed a pfor-tree internal vertex
	ActionSwitch                  // switched to another ready deque
	ActionStealHit                // steal attempt that obtained a vertex
	ActionStealMiss               // steal attempt that found nothing
	ActionBlocked                 // busy-waiting on latency (WS baseline)
)

// String returns a single-character mnemonic used by timeline renderings.
func (a Action) String() string {
	switch a {
	case ActionIdle:
		return "."
	case ActionWork:
		return "W"
	case ActionPfor:
		return "F"
	case ActionSwitch:
		return "C"
	case ActionStealHit:
		return "S"
	case ActionStealMiss:
		return "s"
	case ActionBlocked:
		return "B"
	default:
		return "?"
	}
}

// Tracer receives per-round, per-worker actions from a simulated
// execution. Implementations must be cheap; they are called on the hot
// path of the round loop.
type Tracer interface {
	Record(round int64, worker int, a Action)
}

func (o *Options) withDefaults(g *dag.Graph) (Options, error) {
	opt := *o
	if opt.Workers < 1 {
		return opt, fmt.Errorf("sched: Workers must be >= 1, got %d", opt.Workers)
	}
	if opt.MaxRounds == 0 {
		// Every round places at least one token per worker; W work, all
		// latency serialized, plus slack for steal-heavy executions.
		opt.MaxRounds = 100*g.Work() + 10*g.TotalLatency() + 100_000
	}
	return opt, nil
}

// ErrRoundLimit is returned when an execution exceeds Options.MaxRounds.
var ErrRoundLimit = errors.New("sched: execution exceeded MaxRounds")

// ErrStuck is returned when no worker can make progress yet unexecuted
// vertices remain — impossible on a validated dag and indicative of a
// scheduler bug if ever observed.
var ErrStuck = errors.New("sched: no runnable work but computation incomplete")

// ErrInvariant wraps Lemma-2 invariant violations reported when
// Options.CheckInvariants is set.
var ErrInvariant = errors.New("sched: analysis invariant violated")

// Stats aggregates counters from one execution.
type Stats struct {
	// Rounds is the schedule length in scheduler rounds (the paper's time
	// measure: each round, each worker takes one action).
	Rounds int64
	// UserWork counts executed dag vertices (= W on success).
	UserWork int64
	// PforWork counts executed synthetic pfor-tree internal vertices
	// (LHWS only); Lemma 1 bounds UserWork+PforWork ≤ 2W.
	PforWork int64
	// Switches counts deque switches (LHWS only).
	Switches int64
	// StealAttempts counts all steal attempts, successful or not.
	StealAttempts int64
	// StealSuccesses counts steals that obtained a vertex.
	StealSuccesses int64
	// BlockedRounds counts worker-rounds spent blocked on latency
	// (WS baseline only: the latency the baseline fails to hide).
	BlockedRounds int64
	// IdleRounds counts worker-rounds with no action available (RunGreedy
	// only).
	IdleRounds int64
	// DescheduledRounds counts worker-rounds lost to the simulated OS in
	// multiprogrammed runs (Options.Available).
	DescheduledRounds int64
	// MaxSuspended is the high-water mark of simultaneously suspended
	// vertices (observed suspension width; ≤ U by Definition 1).
	MaxSuspended int
	// MaxDequesPerWorker is the high-water mark of live (allocated,
	// non-freed) deques owned by any single worker; Lemma 7 bounds it by
	// U+1 under LHWS.
	MaxDequesPerWorker int
	// TotalDequesAllocated counts deques ever created (recycled deques are
	// counted once).
	TotalDequesAllocated int
	// EnablingSpan is S*, the depth of the deepest executed vertex in the
	// enabling tree (RunLHWS and RunWS; Corollary 1 bounds it by
	// O(S(1+lg U)) under LHWS).
	EnablingSpan int64
}

// String renders the stats as a compact single line for logs and CLIs.
func (s Stats) String() string {
	return fmt.Sprintf("rounds=%d work=%d pfor=%d switches=%d steals=%d/%d blocked=%d maxSusp=%d maxDeques=%d",
		s.Rounds, s.UserWork, s.PforWork, s.Switches, s.StealSuccesses, s.StealAttempts,
		s.BlockedRounds, s.MaxSuspended, s.MaxDequesPerWorker)
}

// Result is the outcome of one simulated execution.
type Result struct {
	Stats Stats
	// ExecRound records, per dag vertex, the round in which it executed.
	// Used by tests to assert dependency and latency correctness.
	ExecRound []int64
}

// Speedup returns t1Rounds / r.Stats.Rounds: the speedup of this run
// relative to a reference single-worker round count.
func (r *Result) Speedup(t1Rounds int64) float64 {
	return float64(t1Rounds) / float64(r.Stats.Rounds)
}

// node is a unit of schedulable work held in deques: either a dag vertex or
// a synthetic pfor-tree vertex covering a range of resumed entries.
type node struct {
	// v is the dag vertex when pfor == nil.
	v dag.VertexID
	// pfor, when non-nil, makes this a pfor-tree internal vertex covering
	// entries[lo:hi) of the resumed batch.
	pfor   []resumedEntry
	lo, hi int
	// depth is the node's depth in the enabling tree.
	depth int64
	// addedRound is the round the node was pushed onto its deque, used for
	// the auxiliary-chain depth accounting of Lemma 2.
	addedRound int64
}

// resumedEntry is a suspended vertex that has become ready, waiting to be
// re-injected via a pfor tree.
type resumedEntry struct {
	v     dag.VertexID
	depth int64 // enabling depth the vertex would have had (parent+1)
}

// dequeState tracks the lifecycle of Figure 2.
type dequeState int8

const (
	dqActive dequeState = iota
	dqReady
	dqSuspended
	dqFreed
)

// ldeque is the simulator's deque: a plain slice (index 0 = top, end =
// bottom) plus the suspension bookkeeping of Table 1. The round-based
// engine serializes all access, so no synchronization is needed; the
// lock-free deque of internal/deque backs the real runtime instead.
type ldeque struct {
	id           int
	owner        int
	items        []*node
	state        dequeState
	suspendCtr   int
	resumed      []resumedEntry
	inResumedSet bool
	// frozen marks a deque whose items are unavailable until a resume
	// (VariantSuspendDeque only).
	frozen bool
	// lastExecDepth/lastExecRound record the last node executed from this
	// deque, for pfor-root depth accounting when the deque is empty.
	lastExecDepth int64
	lastExecRound int64
}

func (q *ldeque) pushBottom(n *node) { q.items = append(q.items, n) }

func (q *ldeque) empty() bool { return len(q.items) == 0 }

func (q *ldeque) popBottom() *node {
	if len(q.items) == 0 {
		return nil
	}
	n := q.items[len(q.items)-1]
	q.items[len(q.items)-1] = nil
	q.items = q.items[:len(q.items)-1]
	return n
}

func (q *ldeque) popTop() *node {
	if len(q.items) == 0 {
		return nil
	}
	n := q.items[0]
	q.items[0] = nil
	q.items = q.items[1:]
	return n
}

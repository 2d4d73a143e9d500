// Package faultpoint injects scheduler faults for chaos testing the
// latency-hiding runtime.
//
// The LHWS algorithm (paper Figure 3) rests on a chain of liveness
// invariants: every suspended vertex is eventually re-enabled, every
// re-enabled vertex is injected onto its owning deque, and every
// non-empty deque is eventually found by a worker. The analysis assumes
// those hand-offs are perfect; a production runtime has to survive them
// being late, lost, or doubled. This package makes such failures
// reproducible: the runtime consults an Injector at named fault points
// (steal attempts, suspension entry, resume injection, channel wakeups,
// task bodies) and the injector — driven by a seeded splittable RNG so
// chaos runs replay — decides per occurrence whether to misbehave.
//
// The hooks are pay-for-play: a runtime configured without an Injector
// performs a single nil check per fault point and nothing else.
// Cancellation and watchdog recovery paths never consult the injector,
// so a chaos run can always be unwound cleanly.
package faultpoint

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"lhws/internal/rng"
)

// Point names a scheduler location where faults can be injected.
type Point int

const (
	// Steal is a steal attempt; Fail forces the attempt to miss as if
	// the victim's deque were empty or the CAS lost a race.
	Steal Point = iota
	// Suspend is the task-side entry to a suspending operation
	// (Latency, channel send/receive, Await); Delay jitters the window
	// between the suspension decision and the yield, Panic kills the
	// task at the suspension site.
	Suspend
	// ResumeInject is the resume wakeup that returns a suspended task
	// to the resume inbox of its deque's owner (timer fire, future
	// completion — Figure 3 lines 1-5; a join waiter has no deque and
	// goes to the inbox of the worker it yielded to); Drop loses the
	// wakeup, Delay defers it, Dup delivers it twice.
	ResumeInject
	// ChanWakeup is the channel-handoff wakeup (sender resuming a
	// suspended receiver, receiver admitting a suspended sender); same
	// actions as ResumeInject.
	ChanWakeup
	// TaskBody is the entry of a task's user function; Panic makes the
	// task panic before running any user code.
	TaskBody
	// PollComplete is an external I/O completion being delivered to a
	// suspended task (poller readiness, AwaitExternal completion); same
	// actions as ResumeInject. Exercises the path where wakeups originate
	// outside the scheduler entirely.
	PollComplete
	// WorkerWake is the wake of a parked worker (one whose resume inbox
	// just received a task, or one idle worker when
	// stealable work is published); same actions as ResumeInject. A lost
	// worker wake strands work only a sleeping worker can reach, so Drop
	// must surface as a watchdog stall, never a hang.
	WorkerWake

	numPoints
)

func (p Point) String() string {
	switch p {
	case Steal:
		return "steal"
	case Suspend:
		return "suspend"
	case ResumeInject:
		return "resume-inject"
	case ChanWakeup:
		return "chan-wakeup"
	case TaskBody:
		return "task-body"
	case PollComplete:
		return "poll-complete"
	case WorkerWake:
		return "worker-wake"
	default:
		return fmt.Sprintf("Point(%d)", int(p))
	}
}

// Action is what happens when a fault point fires.
type Action int

const (
	// None leaves the operation untouched.
	None Action = iota
	// Fail reports failure (steal attempts miss).
	Fail
	// Drop swallows a wakeup entirely — the paper's "lost wakeup".
	Drop
	// Delay defers the operation by Rule.Delay.
	Delay
	// Dup delivers a wakeup twice, Rule.Delay apart.
	Dup
	// Panic panics at the fault point (task-side points only).
	Panic
)

func (a Action) String() string {
	switch a {
	case None:
		return "none"
	case Fail:
		return "fail"
	case Drop:
		return "drop"
	case Delay:
		return "delay"
	case Dup:
		return "dup"
	case Panic:
		return "panic"
	default:
		return fmt.Sprintf("Action(%d)", int(a))
	}
}

// Rule configures one fault point: with probability Rate, perform
// Action (using Delay where the action needs a duration).
type Rule struct {
	Action Action
	Rate   float64
	Delay  time.Duration
}

// Injector decides, per fault-point occurrence, whether to inject a
// fault. It is safe for concurrent use by workers, timer goroutines,
// and tasks. The zero value is invalid; construct with New.
type Injector struct {
	mu    sync.Mutex
	rnd   *rng.RNG
	rules [numPoints]Rule
	// thresh holds each point's Rate as a uint64 cutoff (0 = disabled).
	// It is atomic so Decide's disarmed fast path — the steady state on
	// worker hot paths like the steal loop — never touches mu: a plain
	// field here would serialize every worker through one global mutex
	// per steal attempt (TestDecideDisarmedIsLockFree).
	thresh [numPoints]atomic.Uint64
	evals  [numPoints]atomic.Int64
	fires  [numPoints]atomic.Int64
}

// New returns an Injector with no rules armed, drawing from a stream
// seeded with seed so chaos runs are replayable.
func New(seed uint64) *Injector {
	return &Injector{rnd: rng.New(seed)}
}

// Set arms rule r at point p and returns the injector for chaining.
// A Rate <= 0 disarms the point; a Rate >= 1 fires on every occurrence.
func (in *Injector) Set(p Point, r Rule) *Injector {
	if p < 0 || p >= numPoints {
		panic(fmt.Sprintf("faultpoint: invalid point %d", int(p)))
	}
	in.mu.Lock()
	in.rules[p] = r
	switch {
	case r.Rate <= 0 || r.Action == None:
		in.thresh[p].Store(0)
	case r.Rate >= 1:
		in.thresh[p].Store(math.MaxUint64)
	default:
		in.thresh[p].Store(uint64(r.Rate * float64(math.MaxUint64)))
	}
	in.mu.Unlock()
	return in
}

// Decide evaluates point p once: it returns the armed action (and its
// delay) if the seeded coin fires, else None. A disarmed point — the
// steady state on worker hot paths — is a single atomic load; only an
// armed point takes the leaf mutex serializing the replayable RNG
// stream.
func (in *Injector) Decide(p Point) (Action, time.Duration) {
	in.evals[p].Add(1)
	if in.thresh[p].Load() == 0 {
		return None, 0
	}
	in.mu.Lock()
	th := in.thresh[p].Load()
	if th == 0 {
		in.mu.Unlock()
		return None, 0
	}
	draw := in.rnd.Uint64()
	r := in.rules[p]
	in.mu.Unlock()
	if th != math.MaxUint64 && draw > th {
		return None, 0
	}
	in.fires[p].Add(1)
	return r.Action, r.Delay
}

// Inject runs task-side point p in place: Delay sleeps the task, Panic
// panics with an identifiable value. Worker-loop hot paths must not
// call Inject — it blocks by design; they use Decide and act
// non-blockingly on the result.
func (in *Injector) Inject(p Point) {
	switch act, d := in.Decide(p); act {
	case Delay:
		time.Sleep(d)
	case Panic:
		panic(fmt.Sprintf("faultpoint: injected panic at %s", p))
	}
}

// Evaluated returns how many times point p was consulted.
func (in *Injector) Evaluated(p Point) int64 { return in.evals[p].Load() }

// Fired returns how many times point p injected a fault.
func (in *Injector) Fired(p Point) int64 { return in.fires[p].Load() }

// Summary formats the per-point evaluation and fire counts.
func (in *Injector) Summary() string {
	s := ""
	for p := Point(0); p < numPoints; p++ {
		if ev := in.evals[p].Load(); ev > 0 {
			if s != "" {
				s += ", "
			}
			s += fmt.Sprintf("%s %d/%d", p, in.fires[p].Load(), ev)
		}
	}
	if s == "" {
		return "no fault points evaluated"
	}
	return s
}

// Package admit is the intake valve of an overloaded lhws server: a
// token/credit admission controller that decides, per request, between
// admitting at full parallelism, degrading (the request runs, but sheds
// its inner parallelism), and rejecting fast with a typed error.
//
// The paper's server scenario (§5) assumes every request eventually gets
// workers; past saturation that assumption fails in the worst way —
// steal-first scheduling spreads all P workers across every queued
// request, so all of them miss their targets together. The Gast et
// al. work-stealing-with-latency analyses make the production metric
// explicit: goodput, the fraction of requests finishing under their
// target T. Defending goodput under overload means refusing or shrinking
// work at the door, not queueing it: a fast ErrOverload costs the client
// a retry; an accepted-then-blown request costs P workers and still
// fails.
//
// The controller composes three mechanisms:
//
//   - Admit: a non-suspending decision sampling the runtime's load
//     signal (runtime.Ctx.LoadSignal) and the controller's in-flight
//     credit count. Thresholds map saturation to Admitted / Degraded /
//     Rejected.
//
//   - AcquireAccept: backpressure for the accept loop. Instead of
//     accepting connections it will immediately reject, the server
//     suspends its acceptor task while in-flight credits are exhausted —
//     connections wait in the kernel backlog, where they cost nothing.
//     It implements lhws/internal/io's Gate, so a Listener consults it
//     inside Accept.
//
//   - Drain: graceful shutdown. Stop intake (gate waiters and new
//     Admits fail with ErrDraining), let in-flight requests finish
//     under a grace deadline, then cancel stragglers through the cancel
//     functions their tickets were bound to, and report what happened.
package admit

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"lhws/internal/runtime"
)

// Typed intake errors. Both are rejected-fast outcomes: the request did
// not run at all.
var (
	// ErrOverload reports that admission was refused because the runtime
	// is saturated past Config.RejectAt or out of in-flight credits.
	ErrOverload = errors.New("admit: overloaded")
	// ErrDraining reports that admission was refused because the
	// controller is draining for shutdown.
	ErrDraining = errors.New("admit: draining")
)

// Policy is an admission decision.
type Policy int8

const (
	// Admitted runs the request at full parallelism.
	Admitted Policy = iota
	// Degraded runs the request with its inner parallelism shed: the
	// handler should consult Ticket.Degraded / Ticket.Parallelism and
	// run serial-ish at lower cost.
	Degraded
	// Rejected refuses the request without running it.
	Rejected
)

func (p Policy) String() string {
	switch p {
	case Admitted:
		return "admitted"
	case Degraded:
		return "degraded"
	case Rejected:
		return "rejected"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Config configures a Controller.
type Config struct {
	// MaxInflight caps concurrently admitted requests (the credit pool).
	// At the cap, Admit rejects and AcquireAccept suspends. 0 means no
	// cap.
	MaxInflight int
	// DegradeAt is the saturation (runtime.Load.Saturation: ready work
	// per worker) at or above which admitted requests are Degraded.
	// 0 disables degradation.
	DegradeAt float64
	// RejectAt is the saturation at or above which requests are
	// Rejected with ErrOverload. 0 disables saturation-based rejection
	// (the MaxInflight cap still rejects). RejectAt should exceed
	// DegradeAt, giving the controller a band where it sheds parallelism
	// before it sheds requests.
	RejectAt float64
}

// Controller is a token/credit admission controller for one server. It
// is safe for concurrent use by any number of tasks.
type Controller struct {
	cfg Config

	mu       sync.Mutex
	inflight int
	draining bool
	live     map[*Ticket]struct{} // admitted tickets, for straggler cancel
	waiters  []*gateWaiter        // suspended AcquireAccept callers, FIFO
	// drainDone counts requests that completed while draining.
	drainDone int
}

// New returns a Controller with the given configuration.
func New(cfg Config) *Controller {
	return &Controller{cfg: cfg, live: make(map[*Ticket]struct{})}
}

// Ticket is one admitted request's credit. Exactly one Done must
// eventually be made per admitted ticket (defer it in the handler; it is
// idempotent and runs fine during a cancellation unwind). Bind attaches
// the cancel function of the request's scope so Drain can cancel
// stragglers.
type Ticket struct {
	ctl    *Controller
	policy Policy

	mu     sync.Mutex
	done   bool
	cancel func()
}

// Policy returns the admission decision this ticket was issued under.
func (t *Ticket) Policy() Policy { return t.policy }

// Degraded reports whether the request should shed its inner
// parallelism.
func (t *Ticket) Degraded() bool { return t.policy == Degraded }

// Parallelism maps the request's natural fan-out n to the admitted one:
// n when Admitted, 1 when Degraded. Handlers that fan out with For/Spawn
// pass their width through this.
func (t *Ticket) Parallelism(n int) int {
	if t.policy == Degraded && n > 1 {
		return 1
	}
	return n
}

// Bind attaches the cancel function of the request's cancellation scope
// (WithCancel/WithDeadline/WithTarget) so a drain past its grace period
// can cancel the straggling request. Calling Bind after Done is a no-op.
func (t *Ticket) Bind(cancel func()) {
	t.mu.Lock()
	if !t.done {
		t.cancel = cancel
	}
	t.mu.Unlock()
}

// Done releases the ticket's credit, waking one suspended acceptor if
// the credit pool was exhausted. Idempotent.
func (t *Ticket) Done() {
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return
	}
	t.done = true
	t.cancel = nil
	t.mu.Unlock()
	t.ctl.release(t)
}

// shed runs the bound cancel function, if any (drain stragglers).
func (t *Ticket) shed() bool {
	t.mu.Lock()
	cancel := t.cancel
	t.cancel = nil
	t.mu.Unlock()
	if cancel == nil {
		return false
	}
	cancel()
	return true
}

// Admit decides intake for one request. It never suspends: the decision
// is a load-signal sample plus a credit check. On Rejected the returned
// error is ErrOverload (or ErrDraining during shutdown), wrapped with
// the saturation that triggered it, and no ticket is issued.
func (a *Controller) Admit(c *runtime.Ctx) (*Ticket, error) {
	ld := c.LoadSignal()
	a.mu.Lock()
	if a.draining {
		a.mu.Unlock()
		return nil, ErrDraining
	}
	if inflight := a.inflight; a.cfg.MaxInflight > 0 && inflight >= a.cfg.MaxInflight {
		a.mu.Unlock()
		return nil, fmt.Errorf("%w: %d requests in flight (cap %d)",
			ErrOverload, inflight, a.cfg.MaxInflight)
	}
	if a.cfg.RejectAt > 0 && ld.Saturation >= a.cfg.RejectAt {
		a.mu.Unlock()
		return nil, fmt.Errorf("%w: saturation %.2f >= %.2f",
			ErrOverload, ld.Saturation, a.cfg.RejectAt)
	}
	policy := Admitted
	if a.cfg.DegradeAt > 0 && ld.Saturation >= a.cfg.DegradeAt {
		policy = Degraded
	}
	t := &Ticket{ctl: a, policy: policy}
	a.inflight++
	a.live[t] = struct{}{}
	a.mu.Unlock()
	return t, nil
}

// Inflight reports the number of admitted, not-yet-Done requests.
func (a *Controller) Inflight() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.inflight
}

// gateWaiter is one suspended AcquireAccept caller. complete is the
// idempotent completion callback of its AwaitExternal suspension, set
// only when the waiter is queued. A canceled waiter that dropWaiter no
// longer finds in the queue but whose complete is set was popped by a
// release (or by Drain, which dropWaiter checks separately), so its
// credit wake is in flight and is forwarded to the next waiter.
type gateWaiter struct {
	complete func(struct{}, error)
}

// AcquireAccept is the accept-loop backpressure point: it returns nil
// immediately while credits remain, suspends the calling task while the
// pool is exhausted (the wake order is FIFO), and fails with ErrDraining
// once the controller is draining. It implements the Gate consulted by
// lhws/internal/io Listeners, so a saturated server stops pulling
// connections out of the kernel backlog instead of accepting and then
// rejecting them.
func (a *Controller) AcquireAccept(c *runtime.Ctx) error {
	for {
		w := &gateWaiter{}
		registered := false
		_, err := runtime.AwaitExternal[struct{}](c, "admit-gate",
			func(complete func(struct{}, error)) func(error) {
				a.mu.Lock()
				switch {
				case a.draining:
					a.mu.Unlock()
					complete(struct{}{}, ErrDraining)
				case a.cfg.MaxInflight <= 0 || a.inflight < a.cfg.MaxInflight:
					a.mu.Unlock()
					complete(struct{}{}, nil)
				default:
					w.complete = complete
					a.waiters = append(a.waiters, w)
					registered = true
					a.mu.Unlock()
				}
				return func(cause error) {
					a.dropWaiter(w)
					// The arm/complete contract requires exactly one
					// eventual completion even after a cancel (it releases
					// the completer's waiter reference); the unwinding
					// task never reads it.
					complete(struct{}{}, cause)
				}
			})
		if err != nil {
			return err
		}
		if !registered {
			// Decided without suspending: the fast path.
			return nil
		}
		// Woken by a released credit. The credit is not reserved for this
		// waiter — re-check, first-come-first-served with fresh arrivals.
	}
}

// dropWaiter removes a canceled waiter from the queue (its task is
// unwinding; waking it would be pointless). If the waiter is gone from
// the queue, a release already popped it and its credit wake is in
// flight at a task that will not use it — forward the wake to the next
// waiter so the free credit is not lost.
func (a *Controller) dropWaiter(w *gateWaiter) {
	a.mu.Lock()
	found := false
	for i, x := range a.waiters {
		if x == w {
			a.waiters = append(a.waiters[:i], a.waiters[i+1:]...)
			found = true
			break
		}
	}
	var next *gateWaiter
	if !found && w.complete != nil && !a.draining && len(a.waiters) > 0 &&
		(a.cfg.MaxInflight <= 0 || a.inflight < a.cfg.MaxInflight) {
		next = a.waiters[0]
		a.waiters = append(a.waiters[:0], a.waiters[1:]...)
	}
	a.mu.Unlock()
	if next != nil {
		next.complete(struct{}{}, nil)
	}
}

// release returns a ticket's credit and wakes the oldest gate waiter.
func (a *Controller) release(t *Ticket) {
	a.mu.Lock()
	a.inflight--
	delete(a.live, t)
	if a.draining {
		a.drainDone++
	}
	var w *gateWaiter
	if len(a.waiters) > 0 {
		w = a.waiters[0]
		a.waiters = append(a.waiters[:0], a.waiters[1:]...)
	}
	a.mu.Unlock()
	if w != nil {
		w.complete(struct{}{}, nil)
	}
}

// DrainReport describes a completed drain.
type DrainReport struct {
	// Completed is the number of in-flight requests that finished
	// (ticket Done) during the drain.
	Completed int
	// Canceled is the number of stragglers shed through their bound
	// cancel functions when the grace period expired.
	Canceled int
	// Remaining is the number of requests still in flight when Drain
	// returned — nonzero only if stragglers ignored cancellation for a
	// further grace period.
	Remaining int
	// Waited is how long the drain took.
	Waited time.Duration
}

// Drain gracefully shuts the controller down: intake stops (Admit and
// AcquireAccept fail with ErrDraining, suspended acceptors are woken
// with it), in-flight requests get grace to finish, and stragglers are
// then canceled through their Bind-ed cancel functions — their tasks
// unwind with the scope's typed cancellation error. Drain suspends
// rather than blocks, so it runs as an ordinary task. It returns when
// the controller is idle or shortly after canceling stragglers.
func (a *Controller) Drain(c *runtime.Ctx, grace time.Duration) *DrainReport {
	start := time.Now()
	a.mu.Lock()
	a.draining = true
	a.drainDone = 0
	waiters := a.waiters
	a.waiters = nil
	a.mu.Unlock()
	for _, w := range waiters {
		w.complete(struct{}{}, ErrDraining)
	}

	deadline := start.Add(grace)
	a.waitIdle(c, deadline)

	// Grace expired: shed the stragglers, then give their unwinds a
	// bounded second wait so Done-on-unwind can land.
	canceled := 0
	a.mu.Lock()
	stragglers := make([]*Ticket, 0, len(a.live))
	for t := range a.live {
		stragglers = append(stragglers, t)
	}
	a.mu.Unlock()
	for _, t := range stragglers {
		if t.shed() {
			canceled++
		}
	}
	if canceled > 0 {
		a.waitIdle(c, time.Now().Add(grace))
	}

	a.mu.Lock()
	rep := &DrainReport{
		Completed: a.drainDone - canceled,
		Canceled:  canceled,
		Remaining: a.inflight,
		Waited:    time.Since(start),
	}
	if rep.Completed < 0 {
		rep.Completed = 0
	}
	a.mu.Unlock()
	return rep
}

// waitIdle suspends (poll + Latency) until the controller has no
// in-flight requests or the deadline passes. Polling keeps the drain
// path trivially correct — shutdown is not a hot path.
func (a *Controller) waitIdle(c *runtime.Ctx, deadline time.Time) {
	const step = 2 * time.Millisecond
	for {
		a.mu.Lock()
		idle := a.inflight == 0
		a.mu.Unlock()
		if idle || !time.Now().Before(deadline) {
			return
		}
		d := time.Until(deadline)
		if d > step {
			d = step
		}
		c.Latency(d)
	}
}

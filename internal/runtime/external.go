package runtime

import (
	"sync"

	"lhws/internal/faultpoint"
)

// This file is the external-completion primitive: the bridge between the
// scheduler's heavy-edge suspension machinery and event sources outside
// the runtime — socket readiness, timers, Go channels, subprocess exits.
// The paper's model (§2) draws a heavy edge wherever a thread waits on
// the world; Latency simulates such an edge with a timer, and
// AwaitExternalOp realizes it for real events: the task suspends through
// the same epoch-claimed waiter token as Latency/Await/Chan, the
// completer calls ExternalHandle.Complete from any goroutine, and the
// wakeup re-injects the task through the owner's drainResumed batch (one
// pfor-tree deque item per drain, Figure 3 lines 7-14).

// WaitKind classifies what a suspension is waiting for. The watchdog
// reports it in StallWait so an I/O hang is distinguishable from a lost
// timer or an abandoned channel peer.
type WaitKind int8

const (
	// KindOther is an unclassified suspension.
	KindOther WaitKind = iota
	// KindTimer waits on a Latency timer.
	KindTimer
	// KindFuture waits on a task completion (Await).
	KindFuture
	// KindChan waits on a runtime channel operation.
	KindChan
	// KindFD waits on socket readiness or I/O completion (lhws/internal/io).
	KindFD
	// KindExternal waits on a generic external completion (AwaitExternal).
	KindExternal
)

func (k WaitKind) String() string {
	switch k {
	case KindTimer:
		return "timer"
	case KindFuture:
		return "future"
	case KindChan:
		return "chan"
	case KindFD:
		return "fd"
	case KindExternal:
		return "external"
	default:
		return "other"
	}
}

// ExternalHandle is the one-shot completion token for one external
// await. It is a small value (safe to copy, comparable) handed to
// ExternalOp.Arm; whoever observes the event calls Complete, from any
// goroutine. Exactly one Complete must eventually be made per Arm —
// even after CancelExternal, whose wake the late Complete then loses to
// the epoch claim and falls away harmlessly.
type ExternalHandle struct {
	wt *waiter
}

// Complete delivers the operation's result (a byte count and an error,
// both passed through to the awaiting task) and wakes the task. The
// wakeup routes through the PollComplete fault point, so chaos runs can
// delay, duplicate, or drop poller completions like any other resume.
//
// The return reports whether the payload was handed to the awaiting
// task: false means a cancellation claimed the suspension first and the
// result was discarded. A completer whose result carries state that
// must not be lost (bytes consumed off a socket, an accepted conn) uses
// this to salvage it — see internal/io's unread stash.
func (h ExternalHandle) Complete(n int, err error) bool {
	wt := h.wt
	// Publish the payload before the wake: the claiming CAS orders these
	// writes before the task reads them, and an abort winner never reads
	// them at all.
	wt.extN, wt.extErr = n, err
	return wt.deliver(faultpoint.PollComplete)
}

// Discard releases the completer's claim on the await without waking
// the task. It is the correct completion for an attempt that observed
// its operation canceled: the abort that interrupted it wakes the task
// itself (abortWait), so a normal Complete would race that wake for the
// epoch claim — and, on winning, hand the unwinding task a kicked
// attempt's payload as if the operation had succeeded.
func (h ExternalHandle) Discard(err error) {
	h.wt.release()
}

// ExternalOp is an external operation a task can await. Arm runs
// task-side, before the task yields: it must publish the operation to
// its completer (poller, goroutine, callback registry) and arrange for
// exactly one eventual h.Complete. CancelExternal is called by the
// runtime when the awaiting task's scope is canceled: it should
// interrupt or deregister the operation so the completer's Complete
// comes promptly; it must not block, and it must tolerate the operation
// having already completed (the handle lets the completer correlate).
// The runtime wakes the task itself after CancelExternal returns.
type ExternalOp interface {
	Arm(h ExternalHandle)
	CancelExternal(h ExternalHandle, cause error)
}

// AwaitExternalOp suspends the task until op completes and returns the
// completion's payload. site and kind label the suspension for watchdog
// diagnostics. The non-generic int payload keeps the I/O hot path
// allocation-free: op is typically a pooled pointer, and converting a
// pointer to an interface does not allocate.
//
// In Blocking mode the task waits on the same waiter but keeps its worker
// until the completion arrives — the block-the-worker baseline the
// paper's evaluation compares against.
//
// If the task's scope is canceled during the wait, the runtime calls
// op.CancelExternal and the task unwinds (cancellation is an unwind, not
// an error return, matching Latency and Await).
//
// External completions deliberately do not count as pending wakes for
// the suspension watchdog: an fd that never becomes ready is exactly the
// hang the watchdog exists to diagnose. Configure StallTimeout above the
// I/O latencies the workload legitimately expects.
func (c *Ctx) AwaitExternalOp(site string, kind WaitKind, op ExternalOp) (int, error) {
	c.checkpoint()
	t := c.t
	wt := c.beginWait(site, kind, c.waitHome(), nil)
	wt.refs.Add(1) // the completer's event reference, consumed by Complete
	wt.ext = op
	// Arm before registering with the scope: the registration and a
	// canceling scope both take scope.mu, so this order is what publishes
	// Arm's writes (e.g. an op's stored cancel hook) to CancelExternal.
	op.Arm(ExternalHandle{wt: wt})
	c.armScope(wt)
	c.finishWait(wt)
	// The payload was copied onto the task by the claiming wake, so it
	// is readable after the waiter may already have been recycled.
	n, err := t.extN, t.extErr
	t.extN, t.extErr = 0, nil
	return n, err
}

// AwaitExternal adapts any callback-style completion into a heavy-edge
// suspension with a typed payload: arm must start the operation and
// return a cancel function (called on scope cancellation; may be nil if
// the operation cannot be interrupted). The completion callback passed
// to arm is idempotent — the first call wins, and exactly one call must
// eventually be made. This is the convenience layer; it allocates per
// await. Latency-critical completers implement ExternalOp against
// AwaitExternalOp instead.
func AwaitExternal[T any](c *Ctx, site string, arm func(complete func(T, error)) (cancel func(error))) (T, error) {
	return awaitExternalGeneric(c, site, KindExternal, arm)
}

func awaitExternalGeneric[T any](c *Ctx, site string, kind WaitKind, arm func(complete func(T, error)) (cancel func(error))) (T, error) {
	b := &extBox[T]{arm: arm}
	_, _ = c.AwaitExternalOp(site, kind, b)
	return b.v, b.err
}

// extBox adapts the generic arm/complete shape onto ExternalOp, carrying
// the typed payload alongside the waiter's int/error channel.
type extBox[T any] struct {
	arm      func(complete func(T, error)) (cancel func(error))
	mu       sync.Mutex
	done     bool
	canceled bool
	v        T
	err      error
	cancel   func(error)
}

func (b *extBox[T]) Arm(h ExternalHandle) {
	b.cancel = b.arm(func(v T, err error) {
		b.mu.Lock()
		if b.done {
			b.mu.Unlock()
			return
		}
		b.done = true
		canceled := b.canceled
		b.v, b.err = v, err
		b.mu.Unlock()
		if canceled {
			// The abort that canceled this box owns the wake; completing
			// normally would race it for the claim and could surface the
			// canceled operation's payload as a successful return.
			h.Discard(err)
			return
		}
		h.Complete(0, err)
	})
}

func (b *extBox[T]) CancelExternal(h ExternalHandle, cause error) {
	b.mu.Lock()
	b.canceled = true
	b.mu.Unlock()
	if b.cancel != nil {
		b.cancel(cause)
	}
}

// AwaitChan suspends the task until a value arrives on a plain Go
// channel, turning the receive into a heavy edge instead of blocking the
// worker. A bridge goroutine performs the receive; scope cancellation
// releases it, so an abandoned channel does not leak the bridge. The
// returned error is ErrChanClosed if ch was closed; cancellation unwinds
// the task rather than returning an error.
func AwaitChan[T any](c *Ctx, ch <-chan T) (T, error) {
	return awaitExternalGeneric(c, "await-chan", KindChan,
		func(complete func(T, error)) func(error) {
			stop := make(chan struct{})
			go func() {
				var zero T
				select {
				case v, ok := <-ch:
					if !ok {
						complete(zero, ErrChanClosed)
						return
					}
					complete(v, nil)
				case <-stop:
					// The runtime aborts the wait itself; this completion
					// only releases the event reference (stale wake).
					complete(zero, ErrCanceled)
				}
			}()
			var once sync.Once
			return func(error) { once.Do(func() { close(stop) }) }
		})
}

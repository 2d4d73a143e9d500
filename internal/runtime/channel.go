package runtime

import (
	"errors"
	"sync"

	"lhws/internal/faultpoint"
)

// ErrChanClosed is the error a suspended sender unwinds with when the
// channel is closed underneath it.
var ErrChanClosed = errors.New("runtime: Chan closed")

// Chan is a task-level message channel with latency-hiding blocking
// semantics: a task that receives from an empty channel (or sends to a
// full bounded channel) suspends exactly like a task performing a latency
// operation — it is paired with its worker's active deque and resumed by
// the peer's matching operation — so channel waits never stall workers in
// LatencyHiding mode. The paper's introduction names "messaging
// primitives" among the latency-incurring operations the model covers;
// Chan is that primitive for this runtime.
//
// Wakeups are Mesa-style: the peer buffers the value (or frees a slot),
// wakes one parked waiter, and the woken task retries its operation. A
// parked waiter is just its *waiter token — no per-operation slot or box
// — so the suspend/wake cycle allocates nothing in steady state: waiters
// are pooled, and the buffer and queues are head-indexed rings that keep
// their backing arrays across refills and dequeue in O(1) (a pop-front
// copy would make draining an n-deep backlog quadratic).
//
// In Blocking mode, a receiver first helps by running tasks from its own
// deque (else a single worker would deadlock against a producer task in
// its own deque) and then waits on the same waiter queue, holding its
// worker; sends never wait (see Send), so capacity only exerts
// backpressure under latency hiding.
//
// Close follows Go channel semantics: receives on a closed, drained
// channel return immediately (RecvOK reports ok=false), sending on a
// closed channel panics, and closing twice panics. A sender suspended on
// a full channel when Close arrives unwinds with ErrChanClosed. If the
// receiving or sending task's scope is canceled, the operation unwinds
// the task — before suspending, or early out of the wait.
//
// A Chan must only be used from tasks of a single Run invocation.
type Chan[T any] struct {
	mu       sync.Mutex
	buf      []T // buffered values: buf[bufHead:]
	bufHead  int
	capacity int // < 1 means unbounded
	closed   bool
	recvq    waitq // parked receivers, FIFO
	sendq    waitq // parked senders, FIFO
}

// NewChan returns a channel with the given capacity; capacity < 1 means
// unbounded (sends never block).
func NewChan[T any](capacity int) *Chan[T] {
	return &Chan[T]{capacity: capacity}
}

// Len returns the number of buffered values.
func (ch *Chan[T]) Len() int {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	return ch.buffered()
}

func (ch *Chan[T]) buffered() int { return len(ch.buf) - ch.bufHead }

// appendLocked enqueues v at the tail. When the head index has crept up
// and the array is full, the live extent is compacted to the front first,
// so the backing array is reused instead of growing without bound —
// amortized O(1), zero steady-state allocations.
func (ch *Chan[T]) appendLocked(v T) {
	if ch.bufHead > 0 && len(ch.buf) == cap(ch.buf) {
		var zero T
		n := copy(ch.buf, ch.buf[ch.bufHead:])
		for i := n; i < len(ch.buf); i++ {
			ch.buf[i] = zero
		}
		ch.buf = ch.buf[:n]
		ch.bufHead = 0
	}
	ch.buf = append(ch.buf, v)
}

// waitq is a FIFO of parked waiters: a head-indexed ring over one backing
// array, the same shape as the value buffer (O(1) pop, compact before
// grow, array kept across refills).
type waitq struct {
	s    []*waiter
	head int
}

func (q *waitq) empty() bool { return q.head == len(q.s) }

func (q *waitq) push(wt *waiter) {
	if q.head > 0 && len(q.s) == cap(q.s) {
		n := copy(q.s, q.s[q.head:])
		for i := n; i < len(q.s); i++ {
			q.s[i] = nil
		}
		q.s = q.s[:n]
		q.head = 0
	}
	q.s = append(q.s, wt)
}

func (q *waitq) pop() *waiter {
	wt := q.s[q.head]
	q.s[q.head] = nil
	q.head++
	if q.head == len(q.s) {
		q.s = q.s[:0]
		q.head = 0
	}
	return wt
}

// take empties the queue and returns the live waiters (Close path; the
// backing array is handed off with them).
func (q *waitq) take() []*waiter {
	live := q.s[q.head:]
	q.s = nil
	q.head = 0
	return live
}

// remove unlinks wt if still queued (cancellation abort path; rare, so a
// scan-and-shift is fine).
func (q *waitq) remove(wt *waiter) bool {
	for i := q.head; i < len(q.s); i++ {
		if q.s[i] == wt {
			copy(q.s[i:], q.s[i+1:])
			q.s[len(q.s)-1] = nil
			q.s = q.s[:len(q.s)-1]
			if q.head == len(q.s) {
				q.s = q.s[:0]
				q.head = 0
			}
			return true
		}
	}
	return false
}

// Close closes the channel: buffered values remain receivable, further
// receives on a drained channel report ok=false, further sends panic.
// Suspended receivers are woken empty-handed (they retry, observe closed,
// and return ok=false); suspended senders unwind with ErrChanClosed (the
// abort path, so it stays reliable under fault injection). Closing an
// already-closed Chan panics.
func (ch *Chan[T]) Close() {
	ch.mu.Lock()
	if ch.closed {
		ch.mu.Unlock()
		panic("runtime: close of closed Chan")
	}
	ch.closed = true
	recvq := ch.recvq.take()
	sendq := ch.sendq.take()
	ch.mu.Unlock()
	for _, wt := range recvq {
		wt.deliver(faultpoint.ChanWakeup) // consumes the queue's reference
	}
	for _, wt := range sendq {
		wt.wake(ErrChanClosed)
		wt.release() // the queue's reference
	}
}

// Send delivers v, suspending while a bounded channel is full. Sending on
// a closed Chan panics.
//
// In Blocking mode Send never waits: a receiver may be helping — running
// producer tasks inline on its own goroutine — so a sender waiting for
// that very receiver to drain the buffer would deadlock. The baseline
// therefore buffers without bound; capacity-based backpressure is only
// meaningful under latency hiding, where a full send suspends the task
// rather than the worker.
func (ch *Chan[T]) Send(c *Ctx, v T) {
	c.checkpoint()
	unbounded := ch.capacity < 1 || c.t.rt.cfg.Mode == Blocking
	parked := false
	for {
		ch.mu.Lock()
		if ch.closed {
			ch.mu.Unlock()
			if parked {
				// The channel was closed while this sender was suspended on
				// it (the wake and the Close raced): unwind with the typed
				// error rather than panicking like a fresh send.
				panic(cancelPanic{err: ErrChanClosed})
			}
			panic("runtime: send on closed Chan")
		}
		// Admit the value if there is room — or if a receiver is parked,
		// which implies the buffer is transiently drained; the receiver
		// retries immediately, so occupancy never exceeds capacity for
		// longer than its wakeup.
		if unbounded || ch.buffered() < ch.capacity || !ch.recvq.empty() {
			ch.appendLocked(v)
			var wt *waiter
			if !ch.recvq.empty() {
				wt = ch.recvq.pop()
			}
			ch.mu.Unlock()
			if wt != nil {
				wt.deliver(faultpoint.ChanWakeup) // consumes the queue's reference
			}
			return
		}
		ch.mu.Unlock()
		// Full: suspend this task until a receiver makes room.
		home := c.waitHome()
		ch.mu.Lock()
		if ch.closed || !ch.recvq.empty() || ch.buffered() < ch.capacity {
			// The channel changed while we were off the lock; retry the
			// fast paths rather than parking on a stale picture.
			ch.mu.Unlock()
			home.unsuspend()
			continue
		}
		wt := c.beginWait("chan-send", KindChan, home, ch)
		wt.refs.Add(1) // the sendq entry's event reference
		ch.sendq.push(wt)
		ch.mu.Unlock()
		c.armScope(wt)
		c.finishWait(wt)
		parked = true
	}
}

// Recv takes the next value, waiting while the channel is empty. On a
// closed, drained channel it returns the zero value; use RecvOK to
// distinguish.
func (ch *Chan[T]) Recv(c *Ctx) T {
	v, _ := ch.RecvOK(c)
	return v
}

// RecvOK is Recv reporting whether the value was a real receive (true)
// or the zero value from a closed, drained channel (false).
func (ch *Chan[T]) RecvOK(c *Ctx) (T, bool) {
	c.checkpoint()
	var zero T
	blocking := c.t.rt.cfg.Mode == Blocking
	for {
		// Fast path: a locked attempt with no suspension bookkeeping.
		ch.mu.Lock()
		if v, ok := ch.takeLocked(); ok {
			ch.mu.Unlock()
			return v, true
		}
		if ch.closed {
			ch.mu.Unlock()
			return zero, false
		}
		ch.mu.Unlock()
		// Blocking mode retries after each task it helps with: the
		// producer may be queued on this worker's own deque.
		if !blocking || !c.helpOne() {
			break
		}
		c.checkpoint()
	}
	// Slow path: wait until a sender buffers a value and wakes us (we
	// then retry the take — another receiver may legally beat us to it)
	// or Close wakes us empty-handed. Each cycle folds the retry and the
	// park decision into a single critical section.
	for {
		home := c.waitHome()
		ch.mu.Lock()
		if v, ok := ch.takeLocked(); ok {
			ch.mu.Unlock()
			home.unsuspend()
			return v, true
		}
		if ch.closed {
			ch.mu.Unlock()
			home.unsuspend()
			return zero, false
		}
		wt := c.beginWait("chan-recv", KindChan, home, ch)
		wt.refs.Add(1) // the recvq entry's event reference
		ch.recvq.push(wt)
		ch.mu.Unlock()
		c.armScope(wt)
		c.finishWait(wt)
	}
}

// cancelWait implements wakeSource: a scope cancellation removes the
// waiter from whichever queue it is parked on and wakes the task with err
// so it unwinds.
func (ch *Chan[T]) cancelWait(wt *waiter, err error) {
	ch.mu.Lock()
	removed := ch.recvq.remove(wt) || ch.sendq.remove(wt)
	ch.mu.Unlock()
	wt.wake(err)
	if removed {
		wt.release() // the queue entry's event reference
	}
}

// TryRecv takes a value if one is buffered, without suspending.
func (ch *Chan[T]) TryRecv() (T, bool) {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	return ch.takeLocked()
}

// takeLocked removes the head of the buffer (O(1): the head index
// advances, the array is kept) and wakes one waiting sender, which now
// has room.
func (ch *Chan[T]) takeLocked() (T, bool) {
	var zero T
	if ch.bufHead == len(ch.buf) {
		return zero, false
	}
	v := ch.buf[ch.bufHead]
	ch.buf[ch.bufHead] = zero
	ch.bufHead++
	if ch.bufHead == len(ch.buf) {
		ch.buf = ch.buf[:0]
		ch.bufHead = 0
	}
	if !ch.sendq.empty() {
		// Wake under ch.mu is fine: deliver takes only leaf locks (the
		// injector's, then the deque's), never ch.mu again.
		ch.sendq.pop().deliver(faultpoint.ChanWakeup) // consumes the queue's reference
	}
	return v, true
}

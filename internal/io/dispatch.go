package io

import (
	"context"
	"errors"
	"net"
	"sync"
	"time"

	"lhws/internal/bufpool"
	"lhws/internal/runtime"
	"lhws/internal/timerwheel"
)

// This file is the dispatcher: the per-Run engine that executes socket
// operations on behalf of suspended tasks. A task touches a socket itself
// in exactly one place — a write's inline first attempt (Conn.tryWritev
// in io.go), one non-blocking writev that either takes the whole vector,
// in which case nothing here runs, or hands the rest over. Every op that
// has to wait — each Read, Accept and Dial, and a write the socket would
// not take whole — becomes an ioOp handed to the dispatcher, and the task
// suspends through runtime.AwaitExternalOp; Arm starts one waiter
// goroutine for the op, which performs the blocking call with the
// socket's deadline cleared and completes the op when the call returns.
//
// A goroutine blocked in nc.Read with no deadline is a park in the Go
// netpoller: it costs no CPU and wakes the moment the fd is ready, so
// the heavy edge costs its own latency and nothing else. The waiters are
// O(U) — one per suspended I/O task, the same order as the runtime's own
// parked task shells (see DESIGN.md §9).
//
// Cancellation never waits for readiness: aborting a suspended I/O task
// kicks the waiter by setting the socket's deadline into the past, which
// interrupts a blocked Read/Write/Accept immediately. Per-op deadlines
// (Conn.SetOpTimeout) ride the run's shared timer wheel and reuse the
// same kick: the expiry callback marks the op timed out and interrupts
// it, and the waiter completes it with ErrOpTimeout — an ordinary error
// return to the task, not an unwind. A third kick (kickRead) tells a
// blocked read that its conn's unread stash just gained bytes.
//
// Nothing re-arms a deadline, so a lost kick is a hang. Two rules keep
// kicks from being lost. Every attempt starts in startAttempt, which
// clears the (possibly stale) deadline under op.mu only after checking
// every interrupt source — a kick that landed first is seen as a flag,
// one that lands later overrides the clear. And a waiter holds its
// direction's turn lock (Conn.rdTurn / wrTurn, Listener.acTurn) from
// that clear until its socket call has returned: the netpoller re-blocks
// a kicked goroutine whose deadline was reset before it got to run, so a
// canceled op's successor must not clear the deadline while its
// predecessor is still inside the call. The inline write attempt keeps
// both rules trivially: it takes the turn by TryLock and never touches a
// deadline.

// errOpCanceled is the completion payload of a kicked (canceled)
// operation. It is never observed by user code: a canceled await either
// unwinds the task (latency-hiding and blocking modes both) before the
// payload is read, or the payload lost the wake claim entirely.
var errOpCanceled = errors.New("lhws/io: operation canceled")

// errOpTimeout is the completion payload of an op whose per-op deadline
// (Conn.SetOpTimeout) expired before the socket delivered. Unlike a
// cancellation it is a normal completion: the task gets (progress,
// ErrOpTimeout) back from Read/Write and decides what to do with the
// connection itself.
var errOpTimeout = errors.New("lhws/io: operation deadline exceeded")

// aLongTimeAgo is the past deadline used to kick in-flight socket calls.
var aLongTimeAgo = time.Unix(1, 0)

type opKind int8

const (
	opRead opKind = iota
	opWritev
	opAccept
	opDial
)

// ioOp is one socket operation in flight between a task and its waiter
// goroutine. Read and write ops are pooled and recycled by the waiter;
// accept and dial ops are owned by the task (it takes the result
// connection out of the op after resuming) and die to the GC.
//
// mu serializes the parties that can touch an op concurrently — the
// arming task, the waiter, a cancellation abort, a stash kick, and the
// timer wheel's deadline callback — and h is the op's identity check:
// CancelExternal compares its handle against op.h, so an abort that
// raced with completion (and possibly with the op's recycling into a
// new life) detects staleness and leaves the new life alone. The
// comparison is sound because the aborting scope still holds a
// reference on its waiter, so the handle's waiter cannot have been
// recycled while the abort runs. The deadline callback's identity check
// is op.dl: a fired timer that no longer matches belongs to a completed
// (possibly recycled) life and is ignored.
type ioOp struct {
	mu       sync.Mutex
	h        runtime.ExternalHandle // zeroed at completion; identity for cancel
	kind     opKind
	canceled bool
	timedOut bool              // per-op deadline expired (Conn.SetOpTimeout)
	dl       *timerwheel.Timer // armed per-op deadline; stopped at completion
	// waitFn is op.wait bound once per op: `go op.waitFn()` starts the
	// waiter without the heap closure a `go` with arguments costs.
	waitFn func()

	cn  *Conn     // read / write
	ln  *Listener // accept
	buf []byte    // read destination

	// Pooled-read state: pb non-nil means buf is pb's payload and the op
	// holds pb's reference until completion settles ownership (task on a
	// won claim, the conn's unread stash on a lost claim with progress,
	// the pool otherwise). See settleBuf.
	pb *bufpool.Buf

	// Write state: vec is consumed front-to-front by writev attempts,
	// voff accumulates bytes written across them, starting from what the
	// task's inline attempt already wrote. one holds a one-element
	// remainder (every Conn.Write that missed), moved here from the Conn
	// so it needs no allocation and outlives a canceled writer.
	vec  net.Buffers
	voff int
	one  [1][]byte

	// Dial / Accept result handoff. resMu (not mu) guards it because the
	// task takes the result after the op's handle is already cleared.
	resMu     sync.Mutex
	res       net.Conn
	abandoned bool // cancel ran before the result landed: closer is the waiter
	dialNet   string
	dialAddr  string
	ctxCancel context.CancelFunc // interrupts an in-flight DialContext
}

// Arm publishes the op and starts its waiter. Runs task-side.
func (op *ioOp) Arm(h runtime.ExternalHandle) {
	op.mu.Lock()
	op.h = h
	if op.waitFn == nil {
		op.waitFn = op.wait
	}
	op.mu.Unlock()
	if !op.disp().addWaiter() {
		// Only reachable for ops with no live awaiting task (the runtime
		// closes the dispatcher after every task has finished); release
		// the stale op's claim rather than strand it.
		op.finish(0, errOpCanceled, true)
		return
	}
	go op.waitFn()
}

// CancelExternal interrupts the op: mark it canceled and kick whatever
// blocking call its waiter has in flight. Runs on the canceling
// goroutine; must not block (deadline sets and context cancels only).
func (op *ioOp) CancelExternal(h runtime.ExternalHandle, cause error) {
	op.mu.Lock()
	if op.h != h {
		// Stale abort: the op completed (and was possibly recycled into a
		// new life with a different handle) before the cancel landed.
		op.mu.Unlock()
		return
	}
	op.canceled = true
	// Capture the kind under the lock: once mu is released the kicked
	// waiter can complete and the op be recycled into a new life whose
	// task-side fields are being rewritten while the code below runs.
	kind := op.kind
	switch kind {
	case opRead:
		op.cn.nc.SetReadDeadline(aLongTimeAgo)
	case opWritev:
		op.cn.nc.SetWriteDeadline(aLongTimeAgo)
	case opAccept:
		if dl, ok := op.ln.nl.(deadliner); ok {
			dl.SetDeadline(aLongTimeAgo)
		}
	case opDial:
		if op.ctxCancel != nil {
			op.ctxCancel()
		}
	}
	op.mu.Unlock()
	if kind == opAccept || kind == opDial {
		// A result that already landed will never be taken: close it.
		// If none landed yet, the waiter closes it on arrival.
		op.resMu.Lock()
		if op.res != nil {
			op.res.Close()
			op.res = nil
		} else {
			op.abandoned = true
		}
		op.resMu.Unlock()
	}
}

// kickRead interrupts a blocked read so it re-checks cn's unread stash:
// salvaged bytes live in userspace now, so the socket may never signal
// readiness for them. op may have been recycled into a new life since
// the caller looked it up; the identity check under mu skips the kick
// unless it is (still, or again) a live read on cn — and a read on cn
// is exactly who must see the stash.
func (op *ioOp) kickRead(cn *Conn) {
	op.mu.Lock()
	if op.kind == opRead && op.cn == cn && !op.canceled {
		cn.nc.SetReadDeadline(aLongTimeAgo)
	}
	op.mu.Unlock()
}

// opDeadlineFired is the timer-wheel callback for a per-op deadline
// (Conn.SetOpTimeout): mark the op timed out and kick it like a cancel
// would, so the waiter returns promptly and completes with ErrOpTimeout.
// Runs on the wheel goroutine. The op.dl identity check makes a stale
// fire — the timer lost its Stop race and the op has completed, possibly
// recycled and re-armed with a fresh timer — a no-op: a fired timer that
// is not the op's current one belongs to a finished life.
func opDeadlineFired(t *timerwheel.Timer, arg any) {
	op := arg.(*ioOp)
	op.mu.Lock()
	if op.dl == t {
		op.dl = nil
		op.timedOut = true
		switch op.kind {
		case opRead:
			op.cn.nc.SetReadDeadline(aLongTimeAgo)
		case opWritev:
			op.cn.nc.SetWriteDeadline(aLongTimeAgo)
		}
	}
	op.mu.Unlock()
}

func (op *ioOp) disp() *dispatcher {
	if op.kind == opAccept {
		return op.ln.d
	}
	return op.cn.d
}

// loadFlags snapshots the op's interrupt flags under mu.
func (op *ioOp) loadFlags() (canceled, timedOut bool) {
	op.mu.Lock()
	c, t := op.canceled, op.timedOut
	op.mu.Unlock()
	return c, t
}

// deadliner is the subset of net listeners/conns that support kicking.
type deadliner interface {
	SetDeadline(time.Time) error
}

// dispatcher counts and joins one Run's waiter goroutines and pools
// their ops. It is created lazily through Ctx.Aux and closed by the
// runtime after the task pool drains, so waiters never outlive the run
// (the leak tests depend on close being synchronous).
type dispatcher struct {
	mu     sync.Mutex
	live   int // waiter goroutines running now
	peak   int // high-water live; the benchmark records it
	closed bool
	wg     sync.WaitGroup
	ops    sync.Pool

	// wheel is the run's shared timer wheel (runtime.Ctx.Wheel): per-op
	// deadlines are O(1) list inserts there, and the runtime shuts it
	// down before the dispatcher closes, so no deadline callback can
	// fire into a closed dispatcher.
	wheel *timerwheel.Wheel
}

type dispKey struct{}

// dispFor returns the Run's dispatcher, creating it on first use.
func dispFor(c *runtime.Ctx) *dispatcher {
	return c.Aux(dispKey{}, func() (any, func()) {
		d := &dispatcher{wheel: c.Wheel()}
		return d, d.close
	}).(*dispatcher)
}

func (d *dispatcher) getOp() *ioOp {
	if v := d.ops.Get(); v != nil {
		return v.(*ioOp)
	}
	return &ioOp{}
}

func (d *dispatcher) putOp(op *ioOp) {
	// The reset must hold op.mu: a late kickRead or CancelExternal that
	// looked the op up before it completed reads these fields under the
	// lock, and must see either the finished life or the cleared one.
	op.mu.Lock()
	op.cn = nil
	op.ln = nil
	op.buf = nil
	op.pb = nil
	op.vec = nil
	op.voff = 0
	op.one[0] = nil
	op.canceled = false
	op.timedOut = false
	op.mu.Unlock()
	d.ops.Put(op)
}

// addWaiter registers one waiter goroutine about to start; false means
// the dispatcher is closed and the op must be discarded instead.
func (d *dispatcher) addWaiter() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return false
	}
	d.live++
	if d.live > d.peak {
		d.peak = d.live
	}
	d.wg.Add(1)
	return true
}

func (d *dispatcher) waiterDone() {
	d.mu.Lock()
	d.live--
	d.mu.Unlock()
	d.wg.Done()
}

// close joins every waiter. The runtime calls it after the run's last
// task has finished, so every op still in flight is a canceled (kicked)
// straggler whose completion nobody awaits.
func (d *dispatcher) close() {
	d.mu.Lock()
	d.closed = true
	d.mu.Unlock()
	d.wg.Wait()
}

// peakWaiters reports the high-water count of live waiter goroutines.
func (d *dispatcher) peakWaiters() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.peak
}

// wait is the op's waiter goroutine: perform the blocking call, complete
// the op. d is read first — completion recycles the op.
func (op *ioOp) wait() {
	d := op.disp()
	switch op.kind {
	case opRead:
		op.runRead(d)
	case opWritev:
		op.runWritev(d)
	case opAccept:
		op.runAccept()
	case opDial:
		op.runDial()
	}
	d.waiterDone()
}

// takeHandle ends the op's completion-side lifetime: it drops a read's
// stash-kick registration on its Conn (pooled ops are about to be
// recycled), stops any armed per-op deadline (a fire losing the race is
// ignored by the op.dl identity check), and zeroes the handle, ending
// the cancel-visibility window.
func (op *ioOp) takeHandle() runtime.ExternalHandle {
	if op.kind == opRead {
		op.cn.clearRead(op)
	}
	op.mu.Lock()
	if op.dl != nil {
		op.dl.Stop()
		op.dl = nil
	}
	h := op.h
	op.h = runtime.ExternalHandle{}
	op.mu.Unlock()
	return h
}

// finish ends the op with the attempt's outcome and reports whether the
// payload reached the task (false: a cancellation claimed the suspension
// first and the result fell away). An attempt that observed its op
// canceled only releases its claim: the abort that kicked it owns the
// task's wake, and a normal Complete would race that wake — a race the
// attempt could win, surfacing a kicked attempt's payload to the task as
// a successful return (see ExternalHandle.Discard).
func (op *ioOp) finish(n int, err error, canceled bool) bool {
	h := op.takeHandle()
	if canceled {
		h.Discard(err)
		return false
	}
	return h.Complete(n, err)
}

// settleBuf resolves a pooled read buffer's ownership after the op's
// completion (or discard). won is finish's claim result (false for
// discards), n the attempt's progress. Exactly one party ends up
// owning the buffer's reference:
//
//   - claim won: the task — it is returning from ReadBuf with the
//     buffer in hand, so the waiter only forgets its pointer;
//   - claim lost with progress: the conn's unread stash — the bytes are
//     already off the socket and the next read must see them, so the
//     buffer MOVES into the stash (the zero-copy half of the cancel
//     window; the unpooled path has to copy here);
//   - claim lost without progress: nobody — back to the pool.
func (op *ioOp) settleBuf(won bool, n int) {
	pb := op.pb
	if pb == nil {
		if !won && n > 0 {
			op.cn.stashUnread(op.buf[:n])
		}
		return
	}
	op.pb = nil
	if won {
		return
	}
	if n > 0 {
		pb.SetLen(n)
		op.cn.stashUnreadBuf(pb)
		return
	}
	pb.Release()
}

// startAttempt begins one indefinite attempt: under op.mu, re-check the
// interrupt flags and — only if neither is set — clear the direction's
// deadline, which may still hold a kick aimed at this op or at a
// finished one. The mutex closes the kick race: a cancel or per-op
// timeout either sees the deadline already cleared and overrides it
// with the past kick, or this attempt sees the flag already set and
// never clears. The caller holds the direction's turn lock.
func (op *ioOp) startAttempt(clear func(time.Time) error) (canceled, timedOut bool) {
	op.mu.Lock()
	canceled, timedOut = op.canceled, op.timedOut
	if !canceled && !timedOut {
		clear(time.Time{})
	}
	op.mu.Unlock()
	return canceled, timedOut
}

func (op *ioOp) runRead(d *dispatcher) {
	cn := op.cn
	// The turn is held until the attempt's bytes are settled, so a
	// successor read cannot pull later bytes off the socket before a
	// canceled predecessor has stashed its earlier ones.
	cn.rdTurn.Lock()
	n, canceled, err := op.read(cn)
	op.settleBuf(op.finish(n, err, canceled), n)
	cn.rdTurn.Unlock()
	d.putOp(op)
}

// read attempts the socket until an attempt ends in something other
// than a bare kick. A kicked attempt's abort owns the task's wake; bytes
// it consumed in the kick window are already off the socket, and
// settleBuf stashes them for the conn's next read instead of silently
// desynchronizing the stream.
func (op *ioOp) read(cn *Conn) (n int, canceled bool, err error) {
	for {
		canceled, timedOut := op.startAttempt(cn.nc.SetReadDeadline)
		if canceled {
			return 0, true, errOpCanceled
		}
		// Bytes salvaged from a canceled predecessor take priority over
		// the socket: they were already consumed off it, so the fd may
		// never signal readiness for them again. Checked after
		// startAttempt so a canceled op cannot drain bytes meant for its
		// successor (if a cancel lands between the two, the claim-loss
		// re-stash puts them back) and so a kickRead the clear erased is
		// still seen.
		if n := cn.takePending(op.buf); n > 0 {
			return n, false, nil
		}
		if timedOut {
			return 0, false, errOpTimeout
		}
		n, err := cn.nc.Read(op.buf)
		canceled, timedOut = op.loadFlags()
		switch {
		case canceled || !isTimeout(err):
			return n, canceled, err
		case n > 0:
			// A kick alongside progress is not an error for the caller (a
			// per-op deadline firing just as bytes landed: the data wins).
			return n, false, nil
		case timedOut:
			return 0, false, errOpTimeout
		}
		// A stash kick, or a stale kick from a finished op: look again.
	}
}

func (op *ioOp) runWritev(d *dispatcher) {
	cn := op.cn
	cn.wrTurn.Lock()
	canceled, err := op.writev(cn)
	cn.wrTurn.Unlock()
	// Kicked: the abort owns the wake. Bytes already on the wire stay
	// there — the unwinding task never reads the progress count.
	op.finish(op.voff, err, canceled)
	d.putOp(op)
}

// writev writes the op's buffer vector: net.Buffers.WriteTo issues one
// writev syscall per ready window, consumes the written prefix and
// blocks until the vector drains, so a kicked attempt resumes exactly
// where it stopped.
func (op *ioOp) writev(cn *Conn) (canceled bool, err error) {
	for {
		canceled, timedOut := op.startAttempt(cn.nc.SetWriteDeadline)
		if canceled {
			return true, errOpCanceled
		}
		if timedOut {
			return false, errOpTimeout
		}
		n, err := op.vec.WriteTo(cn.nc)
		op.voff += int(n)
		canceled, timedOut = op.loadFlags()
		switch {
		case canceled || !isTimeout(err):
			return canceled, err
		case len(op.vec) == 0:
			return false, nil
		case timedOut:
			return false, errOpTimeout
		}
		// A stale kick from a finished op: carry on.
	}
}

func (op *ioOp) runAccept() {
	ln := op.ln
	clear := func(time.Time) error { return nil }
	if dl, ok := ln.nl.(deadliner); ok {
		clear = dl.SetDeadline
	}
	var nc net.Conn
	var err error
	var canceled bool
	ln.acTurn.Lock()
	for {
		if canceled, _ = op.startAttempt(clear); canceled {
			err = errOpCanceled
			break
		}
		nc, err = ln.nl.Accept()
		if canceled, _ = op.loadFlags(); canceled || nc != nil || !isTimeout(err) {
			break
		}
		// A stale kick from a finished accept: carry on.
	}
	ln.acTurn.Unlock()
	if nc != nil {
		// Under a cancel the conn goes through deliverResult's abandoned
		// handoff (closed by whichever side saw it last): nothing leaks.
		op.deliverResult(nc)
		err = nil
	}
	op.finish(0, err, canceled)
}

func (op *ioOp) runDial() {
	// DialContext holds the waiter until the connection (or cancellation
	// via the context) resolves.
	ctx, cancel := context.WithCancel(context.Background())
	op.mu.Lock()
	if op.canceled {
		op.mu.Unlock()
		cancel()
		op.finish(0, errOpCanceled, true)
		return
	}
	op.ctxCancel = cancel
	op.mu.Unlock()
	var dialer net.Dialer
	nc, err := dialer.DialContext(ctx, op.dialNet, op.dialAddr)
	cancel()
	if nc != nil {
		op.deliverResult(nc)
		err = nil
	}
	canceled, _ := op.loadFlags()
	op.finish(0, err, canceled)
}

// deliverResult hands an accepted/dialed connection toward the awaiting
// task, or closes it if a cancellation abandoned the op first — exactly
// one side observes every connection, so none leaks.
func (op *ioOp) deliverResult(nc net.Conn) {
	op.resMu.Lock()
	if op.abandoned {
		op.resMu.Unlock()
		nc.Close()
		return
	}
	op.res = nc
	op.resMu.Unlock()
}

// takeResult is the task-side half of the handoff, after a normal
// (non-unwinding) await return.
func (op *ioOp) takeResult() net.Conn {
	op.resMu.Lock()
	nc := op.res
	op.res = nil
	op.resMu.Unlock()
	return nc
}

// isTimeout runs on every attempt, err or not, so the common cases must
// not allocate: errors.As reflects on (and heap-escapes) its target even
// for a nil error, which would cost one allocation per I/O op. A nil
// check plus a direct interface assertion covers nil and the deadline
// errors the net package actually returns (*net.OpError, unwrapped);
// errors.As stays as the fallback for wrapped errors.
func isTimeout(err error) bool {
	if err == nil {
		return false
	}
	if ne, ok := err.(net.Error); ok {
		return ne.Timeout()
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// Package io gives LHWS tasks real sockets with heavy-edge semantics:
// Read, Write, Accept, and Dial suspend the calling task — never its
// worker — until the operation completes, so a worker whose task is
// waiting on the network immediately runs other work, exactly as the
// paper's latency-hiding scheduler treats a latency-incurring vertex
// (§2's heavy edges, realized by Ctx.Latency for simulated delays and by
// this package for real ones).
//
// The machinery is runtime.AwaitExternalOp underneath: an operation
// suspends through the same epoch-claimed waiter protocol as Latency and
// channel waits, a waiter goroutine parks in the Go netpoller on the
// task's behalf (see dispatch.go), and its completion re-injects the
// task through its deque's bulk resumed path —
// completions sharing a drain enter the deque as one pfor-tree node.
// Scope cancellation (WithCancel/WithDeadline, the watchdog, a panic
// elsewhere) interrupts pending socket calls promptly by kicking their
// deadlines; a canceled operation unwinds the task like every other
// canceled wait. A heavy edge whose latency turns out to be zero is not
// charged one: a write the socket takes whole on a first non-blocking
// attempt returns without suspending (Conn.writev).
//
// The data plane is built not to copy and not to allocate: ReadBuf
// reads into reference-counted pooled buffers (internal/bufpool) that
// move between waiter, task, and the conn's cancel-window stash by
// pointer; QueueWrite/Flush (and Writev) coalesce pipelined responses
// into one vectored writev syscall; per-op deadlines (SetOpTimeout) are
// O(1) entries on the run's shared timer wheel. See DESIGN.md §13.
//
// In Blocking mode the same calls wait on the same waiter but hold the
// worker until the completion arrives, preserving the paper's baseline
// for comparison; code written against this package runs unchanged in
// both modes.
//
// Concurrency contract: at most one task may be in Read and one in Write
// on the same Conn at a time (as with net.Conn, reads and writes are
// independent); Accept similarly admits one accepting task per Listener.
// QueueWrite/Flush belong to the conn's single writer.
package io

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"lhws/internal/bufpool"
	"lhws/internal/runtime"
)

// Conn is a socket whose operations suspend the calling task instead of
// blocking its worker. Create one with Dial, Listener.Accept, or Wrap.
// Close is plain (non-suspending) and interrupts in-flight operations.
type Conn struct {
	d  *dispatcher
	nc net.Conn

	// rdTurn / wrTurn serialize the waiters of one direction: a waiter
	// holds its turn from clearing the deadline until its socket call has
	// returned (reads: until the bytes are settled), so a canceled op's
	// successor can neither erase its predecessor's kick nor overtake its
	// salvaged bytes. A write's inline first attempt (tryWritev) takes
	// wrTurn too, by TryLock. See dispatch.go.
	rdTurn, wrTurn sync.Mutex

	// Inline first write attempt (tryWritev). rc is nil when nc is not a
	// syscall.Conn or the platform has no raw writev: every attempt then
	// misses. tryFn is tryWriteFD bound once, so passing it to rc.Write
	// allocates nothing; tryVec / tryN are its argument and result, iov
	// its iovec scratch — all three touched only under wrTurn. one backs
	// Conn.Write's single-buffer vector.
	rc     syscall.RawConn
	tryFn  func(fd uintptr) bool
	tryVec net.Buffers
	tryN   int
	iov    iovecs
	one    [1][]byte

	// opTimeout, when set, arms a timer-wheel deadline on each
	// subsequent read/write op (see SetOpTimeout).
	opTimeout atomic.Int64

	// wq is the task-local vectored write queue (QueueWrite/Flush). It
	// belongs to the conn's single writer — the same task that would
	// call Write — so it needs no lock: the writer is either queueing or
	// inside Flush, never both.
	wq net.Buffers

	// rdOp is the in-flight read, registered so a late stash entry can
	// kick it (stashUnreadBuf); opMu guards it.
	opMu sync.Mutex
	rdOp *ioOp

	// pendMu guards the unread stash: pooled buffers holding bytes a
	// canceled read's in-flight attempt consumed off the socket after
	// its completion claim was already lost to the abort. Dropping them
	// would desynchronize the stream — the conn's next read would wait
	// forever for bytes that can never arrive again — so the waiter
	// stashes them here and the next read drains the stash before
	// touching the socket. Pooled reads MOVE their buffer in and out
	// (the handoff is a reference transfer, no copy); the unpooled Read
	// path copies, since its bytes alias the unwound caller's buffer.
	// pendOff is the drained prefix of pending[0].
	pendMu  sync.Mutex
	pending []*bufpool.Buf
	pendOff int
}

// setRead / clearRead maintain the stash-kick registration around a
// read's lifetime: set task-side before Arm, cleared by the completing
// waiter.
func (cn *Conn) setRead(op *ioOp) {
	cn.opMu.Lock()
	cn.rdOp = op
	cn.opMu.Unlock()
}

func (cn *Conn) clearRead(op *ioOp) {
	cn.opMu.Lock()
	if cn.rdOp == op {
		cn.rdOp = nil
	}
	cn.opMu.Unlock()
}

// stashUnread salvages bytes whose completion lost its wake claim to a
// cancellation. b aliases the unwound caller's buffer, so this path has
// to copy — into a pooled buffer, which from then on moves like any
// other stash entry.
func (cn *Conn) stashUnread(b []byte) {
	pb := bufpool.Get(len(b))
	copy(pb.Bytes(), b)
	cn.stashUnreadBuf(pb)
}

// stashUnreadBuf salvages a pooled read buffer whose completion lost
// its wake claim: ownership of pb's reference MOVES into the stash (no
// copy — this is the zero-copy half of the cancel window). Any
// successor read already in flight on the conn is then kicked: it may
// be blocked in a socket read waiting for bytes that now sit here.
func (cn *Conn) stashUnreadBuf(pb *bufpool.Buf) {
	cn.pendMu.Lock()
	cn.pending = append(cn.pending, pb)
	cn.pendMu.Unlock()
	cn.opMu.Lock()
	op := cn.rdOp
	cn.opMu.Unlock()
	if op != nil {
		op.kickRead(cn)
	}
}

// takePending drains stashed unread bytes into p, stream order
// preserved; fully drained buffers go back to the pool. Returns 0 when
// the stash is empty (the common case: one predictable branch on the
// read path).
func (cn *Conn) takePending(p []byte) int {
	cn.pendMu.Lock()
	n := 0
	for n < len(p) && len(cn.pending) > 0 {
		pb := cn.pending[0]
		c := copy(p[n:], pb.Bytes()[cn.pendOff:])
		n += c
		cn.pendOff += c
		if cn.pendOff == pb.Len() {
			cn.popPendingLocked()
			pb.Release()
		}
	}
	cn.pendMu.Unlock()
	return n
}

// popPendingLocked removes pending[0] by shifting the tail down, so the
// slice keeps its backing array across drain/refill cycles (the stash
// is almost always 0–2 entries deep; resetting to nil instead would
// make every steady-state stash append allocate a fresh slice). Caller
// holds pendMu and releases the popped buffer itself.
func (cn *Conn) popPendingLocked() {
	last := len(cn.pending) - 1
	copy(cn.pending, cn.pending[1:])
	cn.pending[last] = nil
	cn.pending = cn.pending[:last]
	cn.pendOff = 0
}

// takePendingBuf hands over up to max bytes of the stash's head as one
// buffer — the zero-copy fast path of ReadBuf. A whole head that fits
// moves by pointer; a head longer than max, or one a smaller
// byte-oriented Read already drained part of, is copied out into a
// fresh pooled buffer and the stash keeps what is left.
func (cn *Conn) takePendingBuf(max int) *bufpool.Buf {
	cn.pendMu.Lock()
	defer cn.pendMu.Unlock()
	if len(cn.pending) == 0 {
		return nil
	}
	pb := cn.pending[0]
	if cn.pendOff == 0 && pb.Len() <= max {
		cn.popPendingLocked()
		return pb
	}
	rem := pb.Bytes()[cn.pendOff:]
	if len(rem) > max {
		rem = rem[:max]
	}
	npb := bufpool.Get(len(rem))
	copy(npb.Bytes(), rem)
	cn.pendOff += len(rem)
	if cn.pendOff == pb.Len() {
		cn.popPendingLocked()
		pb.Release()
	}
	return npb
}

func (cn *Conn) hasPending() bool {
	cn.pendMu.Lock()
	ok := len(cn.pending) > 0
	cn.pendMu.Unlock()
	return ok
}

// drainPending releases every stashed buffer (Close). A stash entry
// landing after this (a canceled attempt settling late) is simply left
// to the GC: the conn is closed, nobody will read it, and an unpooled
// buffer costs nothing but its memory.
func (cn *Conn) drainPending() {
	cn.pendMu.Lock()
	pend := cn.pending
	cn.pending = nil
	cn.pendOff = 0
	cn.pendMu.Unlock()
	for _, pb := range pend {
		pb.Release()
	}
}

// Wrap adopts an existing net.Conn into the task runtime. The conn must
// support deadlines (every *net.TCPConn, *net.UnixConn, ... does): the
// cancellation kick is a deadline set, so a conn whose SetDeadline fails
// could hold its waiter forever and hang the run's shutdown. Wrap probes for that up front and rejects such conns
// instead of relying on the caller to know.
func Wrap(c *runtime.Ctx, nc net.Conn) (*Conn, error) {
	if err := nc.SetDeadline(time.Time{}); err != nil {
		return nil, fmt.Errorf("lhws/io: conn %T does not support deadlines: %w", nc, err)
	}
	return newConn(dispFor(c), nc), nil
}

// newConn is the one constructor behind Wrap, Accept and Dial. It takes
// the socket's RawConn once, so the inline write attempt costs no
// allocation per op.
func newConn(d *dispatcher, nc net.Conn) *Conn {
	cn := &Conn{d: d, nc: nc}
	if sc, ok := nc.(syscall.Conn); ok && haveRawWritev {
		if rc, err := sc.SyscallConn(); err == nil {
			cn.rc = rc
			cn.tryFn = cn.tryWriteFD
		}
	}
	return cn
}

// SetOpTimeout sets a per-operation deadline applied to every
// subsequent Read/ReadBuf/Write/Writev/Flush on this conn (zero
// disables it). Each op arms one O(1) entry on the run's shared timer
// wheel — a million pending I/O deadlines are a million list nodes, not
// a million runtime timers — and an op still unfinished when its entry
// fires completes with ErrOpTimeout: an ordinary error return carrying
// whatever progress was made, not a cancellation unwind. The connection
// stays usable. Ops that complete in time cost one O(1) timer stop.
func (cn *Conn) SetOpTimeout(d time.Duration) {
	if d < 0 {
		d = 0
	}
	cn.opTimeout.Store(int64(d))
}

// armOpDeadline arms the conn's per-op deadline on op, if one is set.
// Runs task-side before AwaitExternalOp. The timer is armed and stored
// under op.mu, which the wheel callback takes first: a fire that beats
// the store would otherwise fail the callback's identity check (op.dl)
// and the timeout would be lost.
func (cn *Conn) armOpDeadline(op *ioOp) {
	d := time.Duration(cn.opTimeout.Load())
	if d <= 0 {
		return
	}
	op.mu.Lock()
	op.dl = cn.d.wheel.AfterFuncT(d, opDeadlineFired, op)
	op.mu.Unlock()
}

// Read reads into p, suspending the task until at least one byte (or
// EOF, or an error) is available. Semantics match net.Conn.Read.
func (cn *Conn) Read(c *runtime.Ctx, p []byte) (int, error) {
	// Bytes salvaged from a canceled predecessor read come first: they
	// are already off the socket, ahead of anything it can deliver.
	if n := cn.takePending(p); n > 0 {
		return n, nil
	}
	op := cn.d.getOp()
	op.kind = opRead
	op.cn = cn
	op.buf = p
	cn.setRead(op)
	cn.armOpDeadline(op)
	return c.AwaitExternalOp("io-read", runtime.KindFD, op)
}

// ReadBuf is Read without the copy or the allocation: it reads up to
// max bytes into a buffer from the size-classed pool and hands the
// buffer itself to the task — the same backing array the waiter's
// syscall filled, sized to its class, with Len set to the bytes read.
// The caller owns the returned buffer's reference and must Release it
// (or pass ownership on, e.g. by queueing its bytes for write and
// releasing after Flush). On error the buffer is never returned. Bytes
// stashed by a canceled predecessor are handed over first — a stashed
// buffer of at most max bytes whole, zero-copy.
func (cn *Conn) ReadBuf(c *runtime.Ctx, max int) (*bufpool.Buf, error) {
	if max <= 0 {
		max = 4 << 10
	}
	if pb := cn.takePendingBuf(max); pb != nil {
		return pb, nil
	}
	pb := bufpool.Get(max)
	op := cn.d.getOp()
	op.kind = opRead
	op.cn = cn
	op.pb = pb
	op.buf = pb.Bytes()
	cn.setRead(op)
	cn.armOpDeadline(op)
	n, err := c.AwaitExternalOp("io-read", runtime.KindFD, op)
	// A normal return means the completion claim was won, which
	// transferred the buffer's reference to this task (see settleBuf); a
	// cancellation unwind never reaches here and the op side settles the
	// buffer itself.
	if n <= 0 {
		pb.Release()
		return nil, err
	}
	pb.SetLen(n)
	return pb, err
}

// Write writes all of p, suspending the task only if the socket cannot
// take it all at once. It is Writev over a one-element vector.
func (cn *Conn) Write(c *runtime.Ctx, p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	cn.one[0] = p
	return cn.writev(c, "io-write", cn.one[:])
}

// Writev writes every buffer in bufs as one vectored operation: one
// writev syscall per ready window, so N pipelined response fragments
// cost one syscall instead of N. bufs is consumed — its elements are
// nil'ed and resliced as prefixes complete, exactly like net.Buffers —
// so the caller must not reuse it without rebuilding. Returns the total
// bytes written; a vector the socket does not take whole suspends the
// task until the rest drains, as with Write.
func (cn *Conn) Writev(c *runtime.Ctx, bufs net.Buffers) (int, error) {
	total := 0
	for _, b := range bufs {
		total += len(b)
	}
	if total == 0 {
		return 0, nil
	}
	return cn.writev(c, "io-writev", bufs)
}

// writev is the one funnel under Write, Writev and Flush. A heavy edge
// whose latency turns out to be zero is a light edge: the vector is
// first tried once, non-blocking, on the calling task's own slice, and a
// socket with buffer space — every reply on loopback — takes it whole,
// with no op, no suspension, no waiter and no per-op timer. Anything
// else continues, from the written prefix, into the waiter path that
// used to be the whole story (dispatch.go).
func (cn *Conn) writev(c *runtime.Ctx, site string, bufs net.Buffers) (int, error) {
	n, bufs := cn.tryWritev(c, bufs)
	if len(bufs) == 0 {
		return n, nil
	}
	op := cn.d.getOp()
	if len(bufs) == 1 {
		// A one-element remainder — Write's always is, and it lives in
		// cn.one — moves into the op: a canceled writer unwinds while its
		// kicked waiter may still be reading the vector, and the conn's
		// next Write reuses cn.one.
		op.one[0], bufs[0] = bufs[0], nil
		bufs = op.one[:]
	}
	op.kind = opWritev
	op.cn = cn
	op.vec = bufs
	op.voff = n
	cn.armOpDeadline(op)
	return c.AwaitExternalOp(site, runtime.KindFD, op)
}

// tryWritev is writev's inline first attempt: one raw non-blocking
// writev of bufs. It returns the bytes written and what is left of the
// vector, the written prefix consumed the way net.Buffers does it.
//
// It is a prefix of the waiter path, not a second path, and stays inside
// the kick protocol (DESIGN.md §9) by four rules. A canceled scope does
// no I/O: c.Err is checked first, and the await's own checks unwind the
// task as before. The turn is taken by TryLock, so the attempt never
// runs while a kicked predecessor's waiter is still inside its socket
// call — and, holding it, finds the fd's write lock free. It never clears
// or sets a deadline: a stale kick left in the past makes RawConn.Write
// fail in prepareWrite before the callback runs, which is a miss, and the
// waiter's startAttempt clears it under op.mu as always. And every error
// is a miss, so the waiter's net.Buffers.WriteTo reproduces it with net's
// own value — net.ErrClosed on a closed conn included.
func (cn *Conn) tryWritev(c *runtime.Ctx, bufs net.Buffers) (int, net.Buffers) {
	if cn.rc == nil || c.Err() != nil || !cn.wrTurn.TryLock() {
		return 0, bufs
	}
	cn.tryVec, cn.tryN = bufs, 0
	// The error is dropped on purpose: a failed attempt wrote nothing. The
	// call cannot park: tryWriteFD returns true unconditionally, so
	// RawWrite never reaches waitWrite, and the fd write lock is free
	// because wrTurn is held.
	_ = cn.rc.Write(cn.tryFn)
	n := cn.tryN
	cn.tryVec = nil
	cn.wrTurn.Unlock()
	for rest := n; len(bufs) > 0; bufs = bufs[1:] {
		if b := bufs[0]; len(b) > rest {
			bufs[0] = b[rest:]
			break
		}
		rest -= len(bufs[0])
		bufs[0] = nil
	}
	return n, bufs
}

// tryWriteFD is the RawConn.Write callback of tryWritev. Returning true
// whatever the syscall said is what keeps the attempt non-blocking:
// false would park this goroutine — a worker's — in the netpoller.
func (cn *Conn) tryWriteFD(fd uintptr) bool {
	cn.tryN = cn.iov.writev(fd, cn.tryVec)
	return true
}

// QueueWrite appends p to the conn's write queue without suspending or
// touching the socket. Flush writes everything queued as one vectored
// op. The queue belongs to the conn's single writer task; p is retained
// until the Flush that writes it completes, so the caller must not
// recycle p's backing array before then.
func (cn *Conn) QueueWrite(p []byte) {
	if len(p) == 0 {
		return
	}
	cn.wq = append(cn.wq, p)
}

// Queued reports the bytes currently queued by QueueWrite.
func (cn *Conn) Queued() int {
	total := 0
	for _, b := range cn.wq {
		total += len(b)
	}
	return total
}

// Flush writes every queued buffer in one vectored operation and resets
// the queue. A no-op when nothing is queued. The queue's backing array
// is reused across Flush calls, so a steady queue-and-flush loop
// allocates nothing.
func (cn *Conn) Flush(c *runtime.Ctx) (int, error) {
	if len(cn.wq) == 0 {
		return 0, nil
	}
	vec := cn.wq
	// Reset to the same backing array: the write consumes vec's header
	// (and nils drained elements), and this task — the conn's one writer —
	// does not return from Writev until the vector has drained or failed,
	// inline or suspended, so the reuse cannot race it.
	cn.wq = cn.wq[:0]
	return cn.Writev(c, vec)
}

// NetConn exposes the underlying net.Conn for address inspection and
// option setting. Do not Read/Write it from task code: that blocks the
// worker the task runs on, where Read and Write suspend only the task.
func (cn *Conn) NetConn() net.Conn { return cn.nc }

// Close closes the socket. Non-suspending; pending operations complete
// with the socket's close error (closing unblocks their waiters), and
// stashed unread buffers go back to the pool.
func (cn *Conn) Close() error {
	err := cn.nc.Close()
	cn.drainPending()
	return err
}

// Gate is an admission valve a Listener consults before pulling a
// connection out of the kernel backlog. AcquireAccept returns nil when
// the server has capacity; it may suspend the accepting task (that is
// the point: backpressure parks the acceptor, and waiting connections
// queue in the kernel where they cost no worker); and it fails typed
// when intake is closed (e.g. the admission controller is draining).
// lhws/internal/admit's Controller implements it.
type Gate interface {
	AcquireAccept(c *runtime.Ctx) error
}

// Listener accepts connections without blocking workers.
type Listener struct {
	d  *dispatcher
	nl net.Listener

	// acTurn serializes accept waiters like Conn.rdTurn does reads.
	acTurn sync.Mutex

	gateMu sync.Mutex
	gate   Gate
}

// Listen opens a listening socket (e.g. "tcp", "127.0.0.1:0"). The bind
// itself is immediate; only Accept suspends.
func Listen(c *runtime.Ctx, network, addr string) (*Listener, error) {
	nl, err := net.Listen(network, addr)
	if err != nil {
		return nil, err
	}
	return &Listener{d: dispFor(c), nl: nl}, nil
}

// SetGate installs an admission gate consulted by every subsequent
// Accept. Install it before the accept loop starts; a nil gate (the
// default) admits unconditionally.
func (l *Listener) SetGate(g Gate) {
	l.gateMu.Lock()
	l.gate = g
	l.gateMu.Unlock()
}

// Accept suspends the task until a connection arrives and returns it
// wrapped for task use. With a Gate installed (SetGate), Accept first
// acquires admission — suspending while the server is saturated, so
// fresh connections wait in the kernel backlog instead of being
// accepted into a server that would blow their targets — and returns
// the gate's typed error (e.g. admit.ErrDraining) when intake is
// closed.
func (l *Listener) Accept(c *runtime.Ctx) (*Conn, error) {
	l.gateMu.Lock()
	g := l.gate
	l.gateMu.Unlock()
	if g != nil {
		if err := g.AcquireAccept(c); err != nil {
			return nil, err
		}
	}
	op := &ioOp{kind: opAccept, ln: l}
	if _, err := c.AwaitExternalOp("io-accept", runtime.KindFD, op); err != nil {
		return nil, err
	}
	nc := op.takeResult()
	if nc == nil {
		// A cancellation closed the result before this task took it; the
		// scope is canceled, so the very next scheduling point unwinds.
		return nil, errOpCanceled
	}
	return newConn(l.d, nc), nil
}

// Addr returns the listener's address (useful with port 0).
func (l *Listener) Addr() net.Addr { return l.nl.Addr() }

// Close stops the listener; a pending Accept completes with the close
// error. Non-suspending.
func (l *Listener) Close() error { return l.nl.Close() }

// Dial connects to addr, suspending the task for the duration of the
// connection handshake.
func Dial(c *runtime.Ctx, network, addr string) (*Conn, error) {
	d := dispFor(c)
	op := &ioOp{kind: opDial, cn: &Conn{d: d}, dialNet: network, dialAddr: addr}
	if _, err := c.AwaitExternalOp("io-dial", runtime.KindFD, op); err != nil {
		return nil, err
	}
	nc := op.takeResult()
	if nc == nil {
		return nil, errOpCanceled
	}
	return newConn(d, nc), nil
}

// PeakBridges reports the high-water count of live waiter goroutines in
// this run's dispatcher — one per simultaneously pending socket
// operation that really waits: a write the socket takes whole on its
// inline first attempt never has one. Zero if the run performed no I/O.
// (The name predates the waiters; the repo benchmark records it as
// io.peak_bridges.)
func PeakBridges(c *runtime.Ctx) int {
	return dispFor(c).peakWaiters()
}

// BackendName reports how pending operations wait for readiness. There
// is one mechanism — a goroutine parked in the Go netpoller — so it is a
// constant; benchmark records carry it.
func BackendName(c *runtime.Ctx) string { return "netpoll" }

// ErrOpTimeout is the error a read/write completes with when its per-op
// deadline (SetOpTimeout) expires first. A normal error return, not a
// cancellation: the task keeps running and the conn stays usable.
var ErrOpTimeout = errOpTimeout

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
// canceled wait.
//
// The data plane is built not to copy and not to allocate: ReadBuf
// reads into reference-counted pooled buffers (internal/bufpool) that
// move between waiter, task, and the conn's cancel-window stash by
// pointer; QueueWrite/Flush (and Writev) coalesce pipelined responses
// into one vectored writev syscall; per-op deadlines (SetOpTimeout) are
// O(1) entries on the run's shared timer wheel. See DESIGN.md §13.
//
// In Blocking mode the same calls park the worker until the completion
// arrives, preserving the paper's baseline for comparison; code written
// against this package runs unchanged in both modes.
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
	// salvaged bytes. See dispatch.go.
	rdTurn, wrTurn sync.Mutex

	// opTimeout, when set, arms a timer-wheel deadline on each
	// subsequent read/write op (see SetOpTimeout).
	opTimeout atomic.Int64

	// wq is the task-local vectored write queue (QueueWrite/Flush). It
	// belongs to the conn's single writer — the same task that would
	// call Write — so it needs no lock: the writer is either queueing or
	// suspended in Flush, never both.
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
	return &Conn{d: dispFor(c), nc: nc}, nil
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

// Write writes all of p, suspending the task across partial writes. It
// is Writev over a one-element vector that lives inside the pooled op.
func (cn *Conn) Write(c *runtime.Ctx, p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	op := cn.d.getOp()
	op.one[0] = p
	return cn.writev(c, op, "io-write", op.one[:])
}

// Writev writes every buffer in bufs as one vectored operation: the
// waiter issues writev (net.Buffers.WriteTo), so N pipelined response
// fragments cost one syscall instead of N. bufs is consumed — its
// elements are nil'ed and resliced as prefixes complete, exactly like
// net.Buffers — so the caller must not reuse it without rebuilding.
// Returns the total bytes written; the task stays suspended across
// partial writes until the vector drains, as with Write.
func (cn *Conn) Writev(c *runtime.Ctx, bufs net.Buffers) (int, error) {
	total := 0
	for _, b := range bufs {
		total += len(b)
	}
	if total == 0 {
		return 0, nil
	}
	return cn.writev(c, cn.d.getOp(), "io-writev", bufs)
}

func (cn *Conn) writev(c *runtime.Ctx, op *ioOp, site string, bufs net.Buffers) (int, error) {
	op.kind = opWritev
	op.cn = cn
	op.vec = bufs
	cn.armOpDeadline(op)
	return c.AwaitExternalOp(site, runtime.KindFD, op)
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
	// Reset to the same backing array: the vectored op consumes vec's
	// header (and nils drained elements), and this task is suspended in
	// Writev until the op completes, so the reuse cannot race it.
	cn.wq = cn.wq[:0]
	return cn.Writev(c, vec)
}

// NetConn exposes the underlying net.Conn for address inspection and
// option setting. Do not Read/Write it from task code — that blocks the
// worker (the noblock analyzer flags it).
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
	nl, err := net.Listen(network, addr) //lhws:allowblock bind+listen complete immediately; only Accept waits
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
	return &Conn{d: l.d, nc: nc}, nil
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
	return &Conn{d: d, nc: nc}, nil
}

// PeakBridges reports the high-water count of live waiter goroutines in
// this run's dispatcher — about one per simultaneously pending socket
// operation. Zero if the run performed no I/O. (The name predates the
// waiters; the repo benchmark records it as io.peak_bridges.)
func PeakBridges(c *runtime.Ctx) int {
	return dispFor(c).peakWaiters()
}

// BackendName reports how pending operations wait for readiness. There
// is one mechanism — a goroutine parked in the Go netpoller — so it is a
// constant; benchmark records carry it.
func BackendName(c *runtime.Ctx) string { return "netpoll" }

// ErrOpCanceled is exported for tests that need to distinguish the
// canceled-result sentinel; user code normally never sees it (the task
// unwinds instead).
var ErrOpCanceled = errOpCanceled

// ErrOpTimeout is the error a read/write completes with when its per-op
// deadline (SetOpTimeout) expires first. A normal error return, not a
// cancellation: the task keeps running and the conn stays usable.
var ErrOpTimeout = errOpTimeout

package io

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"testing"
	"time"

	"lhws/internal/bufpool"
	"lhws/internal/runtime"
	"lhws/internal/timerwheel"
)

// TestReadBufEcho: the pooled read path end to end — ReadBuf returns
// buffers whose contents round-trip through a real socket, and
// releasing them feeds the pool (steady state recycles instead of
// allocating).
func TestReadBufEcho(t *testing.T) {
	_, err := runtime.Run(runtime.Config{Workers: 2, Mode: runtime.LatencyHiding, Deadline: 30 * time.Second},
		func(c *runtime.Ctx) {
			l, lerr := Listen(c, "tcp", "127.0.0.1:0")
			if lerr != nil {
				t.Errorf("listen: %v", lerr)
				return
			}
			srv := c.Spawn(func(cc *runtime.Ctx) { echoServe(cc, l, 8) })
			cn, derr := Dial(c, "tcp", l.Addr().String())
			if derr != nil {
				t.Errorf("dial: %v", derr)
				return
			}
			msg := make([]byte, 8)
			for i := 0; i < 64; i++ {
				binary.BigEndian.PutUint64(msg, uint64(i))
				if _, werr := cn.Write(c, msg); werr != nil {
					t.Errorf("write %d: %v", i, werr)
					break
				}
				var got []byte
				for len(got) < 8 {
					pb, rerr := cn.ReadBuf(c, 64)
					if rerr != nil {
						t.Errorf("ReadBuf %d: %v", i, rerr)
						return
					}
					got = append(got, pb.Bytes()...)
					pb.Release()
				}
				if !bytes.Equal(got, msg) {
					t.Errorf("round %d: got %x want %x", i, got, msg)
					break
				}
			}
			cn.Close()
			l.Close()
			srv.Await(c)
		})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestWritevEcho: QueueWrite/Flush coalesce fragments into one vectored
// op whose bytes arrive in order, including a vector big enough to
// force partial writev progress across attempts.
func TestWritevEcho(t *testing.T) {
	_, err := runtime.Run(runtime.Config{Workers: 2, Mode: runtime.LatencyHiding, Deadline: 30 * time.Second},
		func(c *runtime.Ctx) {
			nl, lerr := net.Listen("tcp", "127.0.0.1:0")
			if lerr != nil {
				t.Errorf("listen: %v", lerr)
				return
			}
			defer nl.Close()
			// Raw peer: read everything, echo the byte count back.
			type sinkResult struct {
				sum []byte
				err error
			}
			res := make(chan sinkResult, 1)
			go func() {
				pc, aerr := nl.Accept()
				if aerr != nil {
					res <- sinkResult{err: aerr}
					return
				}
				defer pc.Close()
				var all []byte
				buf := make([]byte, 32<<10)
				for {
					n, rerr := pc.Read(buf)
					all = append(all, buf[:n]...)
					if rerr != nil {
						break
					}
				}
				res <- sinkResult{sum: all}
			}()

			cn, derr := Dial(c, "tcp", nl.Addr().String())
			if derr != nil {
				t.Errorf("dial: %v", derr)
				return
			}

			var want []byte
			// Small fragments: one Flush, one writev.
			for i := 0; i < 16; i++ {
				frag := bytes.Repeat([]byte{byte('a' + i)}, 64)
				want = append(want, frag...)
				cn.QueueWrite(frag)
			}
			if q := cn.Queued(); q != 16*64 {
				t.Errorf("Queued = %d, want %d", q, 16*64)
			}
			if n, werr := cn.Flush(c); werr != nil || n != 16*64 {
				t.Errorf("Flush = %d, %v; want %d, nil", n, werr, 16*64)
			}
			// Flush with nothing queued is a no-op.
			if n, werr := cn.Flush(c); werr != nil || n != 0 {
				t.Errorf("empty Flush = %d, %v; want 0, nil", n, werr)
			}
			// A vector far beyond the socket buffer: partial progress must
			// resume mid-vector without loss or reorder.
			big := net.Buffers{}
			for i := 0; i < 8; i++ {
				frag := bytes.Repeat([]byte{byte('A' + i)}, 128<<10)
				want = append(want, frag...)
				big = append(big, frag)
			}
			if n, werr := cn.Writev(c, big); werr != nil || n != 8*(128<<10) {
				t.Errorf("big Writev = %d, %v; want %d, nil", n, werr, 8*(128<<10))
			}
			cn.Close()

			r := <-res
			if r.err != nil {
				t.Errorf("peer accept: %v", r.err)
				return
			}
			if !bytes.Equal(r.sum, want) {
				t.Errorf("peer saw %d bytes, want %d (content mismatch at %d)",
					len(r.sum), len(want), firstDiff(r.sum, want))
			}
		})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// TestStashMoveUnit exercises the pooled unread stash directly: buffers
// move in by reference (stashUnreadBuf), drain byte-oriented across
// buffer boundaries (takePending), and hand over whole buffers
// zero-copy (takePendingBuf) — including the compaction of a partially
// drained head and the split of a head longer than the reader's max.
func TestStashMoveUnit(t *testing.T) {
	cn := &Conn{} // stash needs no socket; kickRead is skipped with no rdOp
	mk := func(s string) *bufpool.Buf {
		pb := bufpool.Get(len(s))
		copy(pb.Bytes(), s)
		return pb
	}

	// Whole-buffer zero-copy handoff.
	in := mk("hello")
	p0 := &in.Bytes()[0]
	cn.stashUnreadBuf(in)
	out := cn.takePendingBuf(4096)
	if out == nil || string(out.Bytes()) != "hello" {
		t.Fatalf("takePendingBuf = %v", out)
	}
	if &out.Bytes()[0] != p0 {
		t.Fatal("takePendingBuf copied; want the same backing array (move)")
	}
	out.Release()
	if cn.hasPending() {
		t.Fatal("stash not empty after drain")
	}

	// Byte drain across buffer boundaries, order preserved.
	cn.stashUnreadBuf(mk("abc"))
	cn.stashUnreadBuf(mk("defg"))
	p := make([]byte, 5)
	if n := cn.takePending(p); n != 5 || string(p[:n]) != "abcde" {
		t.Fatalf("takePending = %d %q", n, p[:n])
	}
	// Partially drained head compacts into a fresh buffer.
	rest := cn.takePendingBuf(4096)
	if rest == nil || string(rest.Bytes()) != "fg" {
		t.Fatalf("compacted tail = %v", rest)
	}
	rest.Release()

	// A head longer than max splits: max bytes come out in a fresh
	// buffer, the stash keeps the rest, order preserved — a fixed-frame
	// reader's ReadBuf(64) must never return 100 bytes.
	long := make([]byte, 100)
	for i := range long {
		long[i] = byte(i)
	}
	cn.stashUnreadBuf(mk(string(long)))
	first := cn.takePendingBuf(64)
	if first == nil || !bytes.Equal(first.Bytes(), long[:64]) {
		t.Fatalf("split head = %v, want the first 64 bytes", first)
	}
	first.Release()
	second := cn.takePendingBuf(64)
	if second == nil || !bytes.Equal(second.Bytes(), long[64:]) {
		t.Fatalf("split tail = %v, want the last 36 bytes", second)
	}
	second.Release()
	if cn.hasPending() {
		t.Fatal("stash not empty after split drain")
	}
	// A head of exactly max still moves by pointer.
	fit := mk("sixteen bytes!!!")
	pf := &fit.Bytes()[0]
	cn.stashUnreadBuf(fit)
	if out := cn.takePendingBuf(16); out == nil || &out.Bytes()[0] != pf {
		t.Fatal("a head that fits max was copied; want the same backing array (move)")
	} else {
		out.Release()
	}

	// Close-path drain releases without touching a socket.
	cn.stashUnreadBuf(mk("tail"))
	cn.drainPending()
	if cn.hasPending() {
		t.Fatal("drainPending left entries")
	}
}

// TestReadBufCancelStream: cancellation storm against pooled reads on a
// live byte stream. The server emits a continuous counter sequence;
// the client alternates tightly-deadlined ReadBufs (many of which are
// canceled mid-delivery, forcing the claim-lost buffer MOVE into the
// stash) with patient reads. The received stream must stay exactly
// continuous — any lost or duplicated cancel-window buffer shows up as
// a sequence break.
func TestReadBufCancelStream(t *testing.T) {
	const frames = 200
	nl, lerr := net.Listen("tcp", "127.0.0.1:0")
	if lerr != nil {
		t.Fatalf("listen: %v", lerr)
	}
	defer nl.Close()
	go func() {
		pc, aerr := nl.Accept()
		if aerr != nil {
			return
		}
		defer pc.Close()
		var frame [4]byte
		for i := uint32(0); i < frames; i++ {
			binary.BigEndian.PutUint32(frame[:], i)
			if _, werr := pc.Write(frame[:]); werr != nil {
				return
			}
			time.Sleep(500 * time.Microsecond)
		}
	}()

	var got []byte
	_, err := runtime.Run(runtime.Config{Workers: 2, Mode: runtime.LatencyHiding, Deadline: 60 * time.Second},
		func(c *runtime.Ctx) {
			cn, derr := Dial(c, "tcp", nl.Addr().String())
			if derr != nil {
				t.Errorf("dial: %v", derr)
				return
			}
			defer cn.Close()
			for len(got) < 4*frames {
				// A tightly-deadlined pooled read: often canceled just as
				// bytes land, which exercises the stash move.
				cc, cancel := c.WithDeadline(300 * time.Microsecond)
				fut := cc.Spawn(func(child *runtime.Ctx) {
					pb, rerr := cn.ReadBuf(child, 64)
					if rerr == nil {
						got = append(got, pb.Bytes()...)
						pb.Release()
					}
				})
				fut.AwaitErr(c)
				cancel()
				// A patient read picks up whatever the canceled one salvaged.
				if len(got) < 4*frames {
					pb, rerr := cn.ReadBuf(c, 64)
					if rerr != nil {
						t.Errorf("patient ReadBuf after %d bytes: %v", len(got), rerr)
						return
					}
					got = append(got, pb.Bytes()...)
					pb.Release()
				}
			}
		})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(got) != 4*frames {
		t.Fatalf("received %d bytes, want %d", len(got), 4*frames)
	}
	for i := uint32(0); i < frames; i++ {
		if v := binary.BigEndian.Uint32(got[4*i:]); v != i {
			t.Fatalf("stream broken at frame %d: got %d (lost or duplicated cancel-window bytes)", i, v)
		}
	}
}

// TestDispatcherOutlivesCreator: the run's dispatcher is created by the
// first I/O call, here a child's Dial, and must not keep anything of the
// creating task. At P = 1 the child's shell is recycled (its Ctx zeroed)
// when it returns, and the parent then arms a per-op deadline with no
// spawn in between to reuse the shell.
func TestDispatcherOutlivesCreator(t *testing.T) {
	nl, lerr := net.Listen("tcp", "127.0.0.1:0")
	if lerr != nil {
		t.Fatalf("listen: %v", lerr)
	}
	defer nl.Close()
	go func() {
		pc, aerr := nl.Accept()
		if aerr != nil {
			return
		}
		defer pc.Close()
		pc.Read(make([]byte, 1)) // silent until the client closes
	}()
	_, err := runtime.Run(runtime.Config{Workers: 1, Deadline: 30 * time.Second}, func(c *runtime.Ctx) {
		dial := runtime.SpawnValue(c, func(cc *runtime.Ctx) *Conn {
			cn, derr := Dial(cc, "tcp", nl.Addr().String())
			if derr != nil {
				t.Errorf("dial: %v", derr)
			}
			return cn
		})
		cn := dial.Await(c)
		if cn == nil {
			return
		}
		defer cn.Close()
		cn.SetOpTimeout(20 * time.Millisecond)
		if n, rerr := cn.Read(c, make([]byte, 4)); !errors.Is(rerr, ErrOpTimeout) || n != 0 {
			t.Errorf("Read = %d, %v; want 0, ErrOpTimeout", n, rerr)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestOpDeadlineArmedUnderLock: armOpDeadline arms the per-op deadline
// and stores it under op.mu, which the fire callback takes first. With
// op.mu held elsewhere for longer than the deadline, the deadline must
// neither fire early (counted from before it was stored) nor be lost (a
// fire that beats the store fails the callback's identity check).
func TestOpDeadlineArmedUnderLock(t *testing.T) {
	const d = 50 * time.Millisecond
	w := timerwheel.New(0)
	defer w.Shutdown()
	cn := &Conn{d: &dispatcher{wheel: w}}
	cn.SetOpTimeout(d)
	op := &ioOp{kind: opDial}
	timedOut := func() bool {
		op.mu.Lock()
		defer op.mu.Unlock()
		return op.timedOut
	}
	op.mu.Lock()
	armed := make(chan struct{})
	go func() {
		cn.armOpDeadline(op)
		close(armed)
	}()
	time.Sleep(2 * d)
	op.mu.Unlock()
	<-armed
	time.Sleep(d / 5)
	if timedOut() {
		t.Fatal("per-op deadline fired before it was stored")
	}
	for end := time.Now().Add(2 * time.Second); !timedOut(); time.Sleep(time.Millisecond) {
		if time.Now().After(end) {
			t.Fatal("per-op deadline lost: it fired before it was stored")
		}
	}
}

// TestSetOpTimeout: a per-op deadline on a silent conn completes the
// read with ErrOpTimeout — a normal error return, not an unwind — and
// the conn remains usable afterwards.
func TestSetOpTimeout(t *testing.T) {
	nl, lerr := net.Listen("tcp", "127.0.0.1:0")
	if lerr != nil {
		t.Fatalf("listen: %v", lerr)
	}
	defer nl.Close()
	release := make(chan struct{})
	go func() {
		pc, aerr := nl.Accept()
		if aerr != nil {
			return
		}
		defer pc.Close()
		<-release
		pc.Write([]byte("late"))
		// Hold until the client is done reading.
		pc.Read(make([]byte, 1))
	}()

	_, err := runtime.Run(runtime.Config{Workers: 2, Mode: runtime.LatencyHiding, Deadline: 30 * time.Second},
		func(c *runtime.Ctx) {
			cn, derr := Dial(c, "tcp", nl.Addr().String())
			if derr != nil {
				t.Errorf("dial: %v", derr)
				return
			}
			defer cn.Close()
			cn.SetOpTimeout(40 * time.Millisecond)
			start := time.Now()
			n, rerr := cn.Read(c, make([]byte, 4))
			if !errors.Is(rerr, ErrOpTimeout) || n != 0 {
				t.Errorf("Read = %d, %v; want 0, ErrOpTimeout", n, rerr)
			}
			if el := time.Since(start); el > 5*time.Second {
				t.Errorf("op timeout took %v; deadline kick is not prompt", el)
			}
			// Same contract on the pooled path: no buffer returned.
			if pb, rerr := cn.ReadBuf(c, 64); !errors.Is(rerr, ErrOpTimeout) || pb != nil {
				t.Errorf("ReadBuf = %v, %v; want nil, ErrOpTimeout", pb, rerr)
			}
			// The conn is not poisoned: disable the timeout, release the
			// peer, and the late bytes arrive.
			cn.SetOpTimeout(0)
			close(release)
			in := make([]byte, 4)
			if rerr := readFull(c, cn, in); rerr != nil || string(in) != "late" {
				t.Errorf("post-timeout read = %q, %v; want \"late\"", in, rerr)
			}
		})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestOpTimeoutStaleNeverFires is the canceled-deadline regression for
// the timer-wheel op deadlines: deadlines armed by ops that complete in
// time are stopped, and a stale fire that loses the Stop race must be
// ignored by the op.dl identity check — it must never kick a later op
// on the same conn (which would surface as a spurious ErrOpTimeout or
// a broken roundtrip below).
func TestOpTimeoutStaleNeverFires(t *testing.T) {
	_, err := runtime.Run(runtime.Config{Workers: 2, Mode: runtime.LatencyHiding, Deadline: 60 * time.Second},
		func(c *runtime.Ctx) {
			l, lerr := Listen(c, "tcp", "127.0.0.1:0")
			if lerr != nil {
				t.Errorf("listen: %v", lerr)
				return
			}
			srv := c.Spawn(func(cc *runtime.Ctx) { echoServe(cc, l, 4) })
			cn, derr := Dial(c, "tcp", l.Addr().String())
			if derr != nil {
				t.Errorf("dial: %v", derr)
				return
			}
			// Many fast roundtrips under a short op timeout: every op
			// completes well before its deadline, arming and stopping many
			// wheel entries in quick succession on a recycled op.
			cn.SetOpTimeout(30 * time.Millisecond)
			in := make([]byte, 4)
			for i := 0; i < 50; i++ {
				if _, werr := cn.Write(c, []byte("ping")); werr != nil {
					t.Errorf("write %d: %v", i, werr)
					return
				}
				if rerr := readFull(c, cn, in); rerr != nil {
					t.Errorf("read %d: %v (a stale deadline fired?)", i, rerr)
					return
				}
			}
			// Outlive every armed deadline, then prove the conn is clean:
			// if any canceled deadline fired into a live op, this roundtrip
			// would see a kicked read or ErrOpTimeout.
			time.Sleep(80 * time.Millisecond)
			if _, werr := cn.Write(c, []byte("pong")); werr != nil {
				t.Errorf("post-quiesce write: %v", werr)
			}
			if rerr := readFull(c, cn, in); rerr != nil || string(in) != "pong" {
				t.Errorf("post-quiesce read = %q, %v; a canceled deadline fired its op", in, rerr)
			}
			cn.Close()
			l.Close()
			srv.Await(c)
		})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

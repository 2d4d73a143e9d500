package io

import (
	"net"
	"testing"
	"time"

	"lhws/internal/bufpool"
	"lhws/internal/runtime"
)

// TestAllocsEchoSteadyState is the io-layer allocation gate. The runtime
// side is already proven exactly allocation-free (the external-await
// steady-state gate in internal/runtime); this test adds the dispatcher
// on top: pooled ioOps, their waiter goroutines, and deadline clears.
// The budget is lenient rather than zero because the kernel-facing
// layers legitimately allocate a little (netpoll deadline plumbing) —
// the gate exists to catch a regression to per-operation garbage (a
// fresh op, buffer, or closure per read), which would show up as dozens
// of allocations per roundtrip, not a handful.
func TestAllocsEchoSteadyState(t *testing.T) {
	// Raw echo peer: echoes instantly from a plain goroutine, so the
	// task-side read's data is ready almost immediately.
	nl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("peer listen: %v", err)
	}
	defer nl.Close()
	go func() {
		pc, aerr := nl.Accept()
		if aerr != nil {
			return
		}
		defer pc.Close()
		buf := make([]byte, 64)
		for {
			n, rerr := pc.Read(buf)
			if n > 0 {
				pc.Write(buf[:n])
			}
			if rerr != nil {
				return
			}
		}
	}()

	const frame = 8
	var avg float64
	_, err = runtime.Run(runtime.Config{Workers: 1, Mode: runtime.LatencyHiding,
		Seed: 1, Deadline: 60 * time.Second},
		func(c *runtime.Ctx) {
			cn, derr := Dial(c, "tcp", nl.Addr().String())
			if derr != nil {
				t.Errorf("dial: %v", derr)
				return
			}
			defer cn.Close()
			out := []byte("allocfrm")
			in := make([]byte, frame)
			roundtrip := func() {
				if _, werr := cn.Write(c, out); werr != nil {
					t.Errorf("write: %v", werr)
				}
				if rerr := readFull(c, cn, in); rerr != nil {
					t.Errorf("read: %v", rerr)
				}
			}
			for i := 0; i < 64; i++ { // warm op pool, waiter pool
				roundtrip()
			}
			avg = testing.AllocsPerRun(100, roundtrip)
		})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	const budget = 8.0
	if avg > budget {
		t.Fatalf("echo roundtrip allocates %.1f objects on average, budget %.0f", avg, budget)
	}
}

// TestAllocsPooledStashZero is the zero-allocation gate for the pooled
// data plane's own machinery: a buffer checked out of the pool, moved
// into a conn's unread stash by reference, handed back out zero-copy,
// and released must — after warmup — touch no allocator at all. This is
// exactly the cycle the cancel window drives (claim-lost bytes stashed,
// successor read draining them), so per-cancel garbage regressions trip
// here deterministically, with no socket noise in the measurement.
func TestAllocsPooledStashZero(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race instrumentation allocates; strict alloc gates run in the non-race suite")
	}
	cn := &Conn{}
	cycle := func() {
		pb := bufpool.Get(4096)
		cn.stashUnreadBuf(pb)
		out := cn.takePendingBuf(4096)
		out.Release()
	}
	for i := 0; i < 16; i++ { // warm the size-class pool and stash slice
		cycle()
	}
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Fatalf("pooled stash cycle allocates %.2f objects per op, want 0", avg)
	}
}

// TestAllocsReadBufSteadyState gates the full pooled read path — socket
// included — at (near) zero steady-state allocations. A raw peer
// saturates the socket so every ReadBuf finds bytes already buffered
// and completes on its first attempt: the remaining per-op work is a
// pool checkout, a recycled ioOp, one syscall, and the runtime's
// allocation-free resume.
func TestAllocsReadBufSteadyState(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race instrumentation allocates; strict alloc gates run in the non-race suite")
	}
	nl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("peer listen: %v", err)
	}
	defer nl.Close()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		pc, aerr := nl.Accept()
		if aerr != nil {
			return
		}
		defer pc.Close()
		chunk := make([]byte, 64<<10)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, werr := pc.Write(chunk); werr != nil {
				return
			}
		}
	}()

	var avg float64
	_, err = runtime.Run(runtime.Config{Workers: 1, Mode: runtime.LatencyHiding,
		Seed: 1, Deadline: 60 * time.Second},
		func(c *runtime.Ctx) {
			cn, derr := Dial(c, "tcp", nl.Addr().String())
			if derr != nil {
				t.Errorf("dial: %v", derr)
				return
			}
			defer cn.Close()
			read := func() {
				pb, rerr := cn.ReadBuf(c, 4096)
				if rerr != nil {
					t.Errorf("ReadBuf: %v", rerr)
					return
				}
				pb.Release()
			}
			for i := 0; i < 64; i++ { // warm op pool, buffer pool
				read()
			}
			avg = testing.AllocsPerRun(100, read)
		})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// The pooled task-side path itself is allocation-free; the small
	// budget absorbs rare not-ready attempts (the peer briefly outrun on
	// a loaded machine), each of which costs a netpoll deadline error.
	const budget = 0.1
	if avg > budget {
		t.Fatalf("pooled ReadBuf allocates %.2f objects per op steady-state, budget %.1f", avg, budget)
	}
}

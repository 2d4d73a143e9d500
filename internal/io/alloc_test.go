package io

import (
	"bytes"
	stdio "io"
	"math"
	"net"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"syscall"
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

// TestAllocsHighConnFlush holds the data plane's allocation contract
// where the P = 1 gates above cannot look: 1 024 connections with one
// request in flight each, so about a thousand handler tasks sit suspended
// at once and overflow the worker-local caches into their sync.Pool
// backstops (DESIGN.md §8, §13). A request is one pooled ReadBuf and a
// four-fragment QueueWrite + Flush reply. The count is MemStats.Mallocs
// per completed request over three measured windows after a warm one,
// process-wide (the plain-goroutine clients included); the least window
// must be ≤ 0.1, and the buffer pool must serve at least half of its
// gets by recycling.
func TestAllocsHighConnFlush(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("sync.Pool drops objects under -race")
	}
	const conns, frags, fragBytes = 1024, 4, 64
	// The warm window is long: the deques, resumed-set buffers and pools
	// keep growing toward their working set for about a second after the
	// last conn starts.
	const warm, window = time.Second, 300 * time.Millisecond
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil || lim.Cur < 2*conns+64 {
		t.Skipf("needs RLIMIT_NOFILE >= %d (have %d, err %v)", 2*conns+64, lim.Cur, err)
	}
	reply := make([][]byte, frags)
	for i := range reply {
		reply[i] = bytes.Repeat([]byte{byte('a' + i)}, fragBytes)
	}

	addrCh := make(chan string, 1)
	done := make(chan struct{})
	var completed atomic.Int64
	var perReq [4]float64 // the warm window, then the three measured ones
	var gets, news uint64
	go func() { // the load: plain goroutines, not tasks
		defer close(done)
		addr, ok := <-addrCh
		if !ok {
			return
		}
		var stop atomic.Bool
		var wg sync.WaitGroup
		ncs := make([]net.Conn, 0, conns)
		defer func() {
			stop.Store(true)
			for _, nc := range ncs {
				nc.Close()
			}
			wg.Wait()
		}()
		for i := 0; i < conns; i++ {
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				t.Errorf("dial %d: %v", i, err)
				return
			}
			ncs = append(ncs, nc)
			wg.Add(1)
			go func() {
				defer wg.Done()
				req, in := []byte{'r'}, make([]byte, frags*fragBytes)
				for !stop.Load() {
					if _, err := nc.Write(req); err != nil {
						return
					}
					if _, err := stdio.ReadFull(nc, in); err != nil {
						return
					}
					completed.Add(1)
				}
			}()
		}
		for start := time.Now(); completed.Load() < conns; time.Sleep(time.Millisecond) {
			if time.Since(start) > 30*time.Second {
				t.Errorf("only %d requests completed 30s after dialing %d conns", completed.Load(), conns)
				return
			}
		}
		var ms goruntime.MemStats
		var gets0, news0 uint64
		for i := range perReq {
			if i == 1 { // pool traffic counts from the first measured window
				gets0, news0, _ = bufpool.Stats()
			}
			goruntime.ReadMemStats(&ms)
			m0, c0 := ms.Mallocs, completed.Load()
			if i == 0 {
				time.Sleep(warm)
			} else {
				time.Sleep(window)
			}
			goruntime.ReadMemStats(&ms)
			if dc := completed.Load() - c0; dc > 0 {
				perReq[i] = float64(ms.Mallocs-m0) / float64(dc)
			} else {
				perReq[i] = math.Inf(1)
			}
		}
		gets1, news1, _ := bufpool.Stats()
		gets, news = gets1-gets0, news1-news0
	}()

	_, err := runtime.Run(runtime.Config{Workers: 4, Mode: runtime.LatencyHiding, Deadline: 120 * time.Second},
		func(c *runtime.Ctx) {
			l, lerr := Listen(c, "tcp", "127.0.0.1:0")
			if lerr != nil {
				t.Errorf("listen: %v", lerr)
				close(addrCh)
				return
			}
			addrCh <- l.Addr().String()
			srv := c.Spawn(func(cc *runtime.Ctx) {
				for {
					cn, aerr := l.Accept(cc)
					if aerr != nil {
						return
					}
					cc.Spawn(func(hc *runtime.Ctx) {
						defer cn.Close()
						for {
							pb, rerr := cn.ReadBuf(hc, 256)
							if rerr != nil {
								return
							}
							n := pb.Len()
							pb.Release()
							for ; n > 0; n-- {
								for _, f := range reply {
									cn.QueueWrite(f)
								}
								if _, werr := cn.Flush(hc); werr != nil {
									return
								}
							}
						}
					})
				}
			})
			runtime.AwaitChan[struct{}](c, done)
			l.Close()
			srv.Await(c)
		})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if t.Failed() {
		return
	}
	least := min(perReq[1], perReq[2], perReq[3])
	t.Logf("allocs/req: warm %.3f, measured %.3f %.3f %.3f; bufpool gets %d, fresh %d",
		perReq[0], perReq[1], perReq[2], perReq[3], gets, news)
	if least > 0.1 {
		t.Errorf("%.3f allocs per request at C=%d (least of three windows), want <= 0.1", least, conns)
	}
	if gets == 0 || float64(gets-news) < 0.5*float64(gets) {
		t.Errorf("bufpool recycled %d of %d gets, want >= 50%%", gets-news, gets)
	}
}

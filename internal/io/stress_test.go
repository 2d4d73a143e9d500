package io

import (
	"errors"
	stdio "io"
	"net"
	goruntime "runtime"
	"sort"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"lhws/internal/runtime"
	"lhws/internal/timerwheel"
)

// These tests pin what an indefinite netpoller wait has to get right and
// what deadline-slice rotation could not do: a kick that is lost is a
// hang now, not a 2ms hiccup, and a ready conn's wake must not depend on
// how many idle conns are parked beside it.

// TestCancelVsWaitStress races cancellation against the start of a
// waiter's blocking call: 1–5ms scope deadlines against four never-ready
// conns, each canceled read followed at once by a successor on the same
// conn. The windows it hammers:
//
//  1. the cancel lands between Arm and the waiter's first attempt — the
//     attempt must see the flag instead of clearing the kick away;
//  2. the successor's attempt clears the read deadline while the kicked
//     predecessor has been woken but has not run yet — the netpoller
//     would re-block it for good (the turn lock forbids the clear);
//  3. a late cancel hits an op already recycled into its next life.
//
// The run finishing cleanly and promptly under -race is the assertion.
func TestCancelVsWaitStress(t *testing.T) {
	addr, cleanup := neverReadyPeer(t)
	defer cleanup()
	start := time.Now()
	_, err := runtime.Run(runtime.Config{Workers: 4, Mode: runtime.LatencyHiding, Deadline: 120 * time.Second},
		func(c *runtime.Ctx) {
			const conns = 4
			cs := make([]*Conn, conns)
			for i := range cs {
				cn, derr := Dial(c, "tcp", addr)
				if derr != nil {
					t.Errorf("dial: %v", derr)
					return
				}
				cs[i] = cn
			}
			for iter := 0; iter < 60; iter++ {
				cc, cancel := c.WithDeadline(time.Duration(1+iter%5) * time.Millisecond)
				futs := make([]*runtime.Future, conns)
				for i, cn := range cs {
					cn := cn
					futs[i] = cc.Spawn(func(child *runtime.Ctx) {
						cn.Read(child, make([]byte, 1)) // never ready; unwinds on cancel
					})
				}
				for _, f := range futs {
					f.AwaitErr(c)
				}
				cancel()
			}
			for _, cn := range cs {
				cn.Close()
			}
		})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if el := time.Since(start); el > 60*time.Second {
		t.Fatalf("stress run took %v; canceled waiters are not completing promptly", el)
	}
}

// TestOpTimeoutStress: 2000 ReadBufs on a never-ready peer, each under a
// per-op timeout of one wheel tick, so the expiry callback regularly
// fires between armOpDeadline and the waiter's first attempt. Every one
// must return ErrOpTimeout; StallTimeout turns a lost kick (the attempt
// clearing a deadline the callback had just set) into a loud failure
// instead of a hung test.
func TestOpTimeoutStress(t *testing.T) {
	addr, cleanup := neverReadyPeer(t)
	defer cleanup()
	_, err := runtime.Run(runtime.Config{Workers: 2, Mode: runtime.LatencyHiding,
		StallTimeout: 2 * time.Second, Deadline: 120 * time.Second},
		func(c *runtime.Ctx) {
			cn, derr := Dial(c, "tcp", addr)
			if derr != nil {
				t.Errorf("dial: %v", derr)
				return
			}
			defer cn.Close()
			cn.SetOpTimeout(timerwheel.DefaultTick)
			for i := 0; i < 2000; i++ {
				if pb, rerr := cn.ReadBuf(c, 64); !errors.Is(rerr, ErrOpTimeout) || pb != nil {
					t.Errorf("ReadBuf %d = %v, %v; want nil, ErrOpTimeout", i, pb, rerr)
					return
				}
			}
		})
	if err != nil {
		t.Fatalf("Run: %v (a per-op timeout kick was lost)", err)
	}
}

// TestSparseWake: one active echo client beside 1024 accepted conns
// whose handlers sit parked in ReadBuf. The active conn's round trip
// must not pay for the parked ones (rotation's bound here was
// C·slice/cap = 256ms), accepting must not slow down as parked conns
// accumulate, the waiters must number about one per pending op, and all
// of them must be gone when Run returns.
func TestSparseWake(t *testing.T) {
	const idle = 1024
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil || lim.Cur < 2*idle+64 {
		t.Skipf("needs RLIMIT_NOFILE >= %d (have %d, err %v)", 2*idle+64, lim.Cur, err)
	}
	base := goruntime.NumGoroutine()

	addrCh := make(chan string, 1)
	done := make(chan struct{})
	var accepted atomic.Int32
	var ramp time.Duration
	var rtts []time.Duration
	go func() { // the load: plain goroutine, not tasks
		defer close(done)
		addr, ok := <-addrCh
		if !ok {
			return
		}
		conns := make([]net.Conn, 0, idle+1)
		defer func() {
			for _, nc := range conns {
				nc.Close()
			}
		}()
		start := time.Now()
		for i := 0; i < idle+1; i++ {
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				t.Errorf("dial %d: %v", i, err)
				return
			}
			conns = append(conns, nc)
		}
		for accepted.Load() < idle+1 {
			if time.Since(start) > 30*time.Second {
				t.Errorf("only %d of %d conns accepted after 30s", accepted.Load(), idle+1)
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
		ramp = time.Since(start)

		active := conns[idle]
		out, in := []byte("sparsefr"), make([]byte, 8)
		for i := 0; i < 300; i++ {
			t0 := time.Now()
			if _, err := active.Write(out); err != nil {
				t.Errorf("active write %d: %v", i, err)
				return
			}
			if _, err := stdio.ReadFull(active, in); err != nil {
				t.Errorf("active read %d: %v", i, err)
				return
			}
			rtts = append(rtts, time.Since(t0))
		}
	}()

	var peak int
	_, err := runtime.Run(runtime.Config{Workers: 2, Mode: runtime.LatencyHiding, Deadline: 120 * time.Second},
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
					accepted.Add(1)
					cc.Spawn(func(hc *runtime.Ctx) {
						defer cn.Close()
						for {
							pb, rerr := cn.ReadBuf(hc, 64)
							if rerr != nil {
								return
							}
							_, werr := cn.Write(hc, pb.Bytes())
							pb.Release()
							if werr != nil {
								return
							}
						}
					})
				}
			})
			runtime.AwaitChan[struct{}](c, done)
			l.Close()
			srv.Await(c)
			peak = PeakBridges(c)
		})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if t.Failed() {
		return
	}

	if ramp > 2*time.Second {
		t.Errorf("accepting %d conns took %v, want < 2s (accept slows as parked conns accumulate)", idle+1, ramp)
	}
	sort.Slice(rtts, func(i, j int) bool { return rtts[i] < rtts[j] })
	if p50 := rtts[len(rtts)/2]; p50 > 2*time.Millisecond {
		t.Errorf("active round-trip p50 = %v beside %d parked conns, want < 2ms", p50, idle)
	}
	// Pending ops at the peak: one read per conn, the accept, and the
	// active conn's reply; the constant absorbs waiters between their
	// completion and their exit.
	if max := idle + 1 + 1 + 8; peak > max {
		t.Errorf("peak live waiters = %d for ~%d pending ops, want <= %d", peak, idle+2, max)
	}
	deadline := time.Now().Add(5 * time.Second)
	for goruntime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := goruntime.NumGoroutine(); n > base {
		t.Errorf("goroutines left after Run: %d -> %d", base, n)
	}
}

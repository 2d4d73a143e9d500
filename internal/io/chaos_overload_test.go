package io

import (
	"errors"
	goruntime "runtime"
	"sync/atomic"
	"testing"
	"time"

	"lhws/internal/admit"
	"lhws/internal/bufpool"
	"lhws/internal/faultpoint"
	"lhws/internal/runtime"
)

// The overload chaos scenarios extend the io suite from fault tolerance
// to overload robustness: instead of asking "does a delayed completion
// still arrive", they ask "does the server path stay live, leak-free,
// and typed when offered more work than it can serve". Each scenario
// layers faultpoint injection (delayed completions, inflated steals) on
// top of a burst- or poison-shaped load against the full overload stack
// — admit.Controller intake, accept-gate backpressure, per-request
// targets, ShedBlownTargets steal gating, and a graceful drain — and
// demands exact accounting: every request ends in exactly one of
// served/rejected/shed, stragglers die with typed errors, and no task
// goroutine outlives the run.

// ioWaitGoroutines polls until the goroutine count returns to the
// pre-run baseline (plus a cushion for runtime housekeeping).
func ioWaitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		goruntime.GC()
		n := goruntime.NumGoroutine()
		if n <= want {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:goruntime.Stack(buf, true)]
			t.Fatalf("goroutines leaked: %d running, want <= %d\n%s", n, want, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChaosOverloadBurst slams a gated server with a one-instant burst
// of arrivals while I/O completions are randomly delayed, with one
// request deliberately wedged on a channel that never delivers. The
// admission gate paces intake through the burst; the drain at the end
// must cancel the wedged straggler with a typed error and account for
// every request exactly once.
func TestChaosOverloadBurst(t *testing.T) {
	const clients = 23 // plus one wedged straggler
	for _, seed := range ioChaosSeeds {
		inj := faultpoint.New(seed).Set(faultpoint.PollComplete,
			faultpoint.Rule{Action: faultpoint.Delay, Rate: 0.3, Delay: 2 * time.Millisecond})
		base := goruntime.NumGoroutine()
		var served, rejected, shed, other atomic.Int64
		var stragglerTyped atomic.Bool
		cfg := ioChaosConfig(seed, inj)
		cfg.ShedBlownTargets = true
		st, err := runtime.Run(cfg, func(c *runtime.Ctx) {
			l, lerr := Listen(c, "tcp", "127.0.0.1:0")
			if lerr != nil {
				t.Errorf("seed %d: listen: %v", seed, lerr)
				return
			}
			addr := l.Addr().String()
			ctl := admit.New(admit.Config{MaxInflight: 4})
			l.SetGate(ctl)
			wedge := runtime.NewChan[int](0)    // never sent on
			admitted := runtime.NewChan[int](1) // 'z' admission handshake

			srv := c.Spawn(func(cc *runtime.Ctx) {
				for {
					cn, aerr := l.Accept(cc)
					if aerr != nil {
						return // closed or draining
					}
					cc.Spawn(func(hc *runtime.Ctx) {
						defer cn.Close()
						var req [1]byte
						if rerr := readFull(hc, cn, req[:]); rerr != nil {
							return
						}
						tk, aerr := ctl.Admit(hc)
						if aerr != nil {
							cn.Write(hc, []byte{'r'})
							return
						}
						defer tk.Done()
						rc, cancel := hc.WithTarget(time.Second)
						defer cancel()
						tk.Bind(cancel)
						var fut *runtime.Future
						if req[0] == 'z' {
							// Ack admission so the test can order the burst
							// strictly after the straggler holds its credit.
							if _, werr := cn.Write(hc, []byte{'a'}); werr != nil {
								return
							}
							fut = rc.Spawn(func(sc *runtime.Ctx) {
								wedge.Recv(sc) // wedged until the drain cancels rc
							})
						} else {
							fut = rc.Spawn(func(sc *runtime.Ctx) {
								sc.Latency(2 * time.Millisecond)
							})
						}
						if werr := fut.AwaitErr(hc); werr != nil {
							if req[0] == 'z' && errors.Is(werr, runtime.ErrCanceled) {
								stragglerTyped.Store(true)
							}
							cn.Write(hc, []byte{'s'})
							return
						}
						cn.Write(hc, []byte{'o'})
					})
				}
			})

			request := func(cc *runtime.Ctx, kind byte) {
				cn, derr := Dial(cc, "tcp", addr)
				if derr != nil {
					other.Add(1)
					return
				}
				defer cn.Close()
				var reply [1]byte
				if _, werr := cn.Write(cc, []byte{kind}); werr != nil {
					other.Add(1)
					return
				}
				if kind == 'z' {
					if rerr := readFull(cc, cn, reply[:]); rerr != nil || reply[0] != 'a' {
						other.Add(1)
						return
					}
					admitted.Send(cc, 1)
				}
				if rerr := readFull(cc, cn, reply[:]); rerr != nil {
					other.Add(1)
					return
				}
				switch reply[0] {
				case 'o':
					served.Add(1)
				case 'r':
					rejected.Add(1)
				case 's':
					shed.Add(1)
				default:
					other.Add(1)
				}
			}

			straggler := c.Spawn(func(cc *runtime.Ctx) { request(cc, 'z') })
			admitted.Recv(c) // straggler holds its credit; now burst
			burst := make([]*runtime.Future, clients)
			for i := range burst {
				burst[i] = c.Spawn(func(cc *runtime.Ctx) { request(cc, 's') })
			}
			for _, f := range burst {
				f.Await(c)
			}
			// The burst is done; the wedged request still holds a credit.
			// The drain must cancel it through its bound scope.
			rep := ctl.Drain(c, 100*time.Millisecond)
			straggler.Await(c)
			if rep.Canceled < 1 {
				t.Errorf("seed %d: drain canceled %d stragglers, want >= 1", seed, rep.Canceled)
			}
			if rep.Remaining != 0 {
				t.Errorf("seed %d: drain left %d in flight", seed, rep.Remaining)
			}
			if ctl.Inflight() != 0 {
				t.Errorf("seed %d: inflight %d after drain", seed, ctl.Inflight())
			}
			l.Close()
			srv.Await(c)
		})
		if err != nil {
			t.Fatalf("seed %d: Run: %v (faults: %s)", seed, err, inj.Summary())
		}
		if st.Stalled {
			t.Fatalf("seed %d: watchdog fired during overload burst", seed)
		}
		total := served.Load() + rejected.Load() + shed.Load() + other.Load()
		if total != clients+1 || other.Load() != 0 {
			t.Fatalf("seed %d: accounting served=%d rejected=%d shed=%d other=%d, want %d total and 0 other",
				seed, served.Load(), rejected.Load(), shed.Load(), other.Load(), clients+1)
		}
		if shed.Load() < 1 {
			t.Fatalf("seed %d: wedged straggler was not shed", seed)
		}
		if !stragglerTyped.Load() {
			t.Fatalf("seed %d: straggler did not unwind with ErrCanceled", seed)
		}
		if inj.Fired(faultpoint.PollComplete) == 0 {
			t.Fatalf("seed %d: scenario never fired a PollComplete fault", seed)
		}
		ioWaitGoroutines(t, base+3)
	}
}

// TestChaosOverloadPoison mixes well-behaved small requests with huge
// "poison" requests whose subtrees can never meet their (already blown)
// targets and never finish on their own. ShedBlownTargets must cancel
// every poison subtree with ErrTargetMissed — returning the workers to
// the small requests, which must all be served — rather than letting
// the poison monopolize the runtime.
//
// The poison requests are also physically huge: each carries a 64 KiB
// body that the client stages in a pooled buffer and sends as one
// vectored header+body write, and the server drains through the pooled
// ReadBuf path before the subtree even starts. Running the data plane's
// pooled/vectored machinery under fault injection (duplicated and
// delayed completions) is the point — the byte-sum check below fails if
// a pooled buffer is recycled while its bytes are still in flight.
func TestChaosOverloadPoison(t *testing.T) {
	const (
		smalls  = 8
		poisons = 3

		poisonBody = 64 << 10
	)
	// Byte-sum of the 0,1,2,... pattern the client stages per request.
	var wantBodySum int64
	for i := 0; i < poisonBody; i++ {
		wantBodySum += int64(byte(i))
	}
	for _, seed := range ioChaosSeeds {
		inj := faultpoint.New(seed).Set(faultpoint.PollComplete,
			faultpoint.Rule{Action: faultpoint.Dup, Rate: 0.3, Delay: time.Millisecond})
		base := goruntime.NumGoroutine()
		var served, shed, other atomic.Int64
		var poisonTyped, poisonBodiesOK atomic.Int64
		cfg := ioChaosConfig(seed, inj)
		cfg.ShedBlownTargets = true
		st, err := runtime.Run(cfg, func(c *runtime.Ctx) {
			l, lerr := Listen(c, "tcp", "127.0.0.1:0")
			if lerr != nil {
				t.Errorf("seed %d: listen: %v", seed, lerr)
				return
			}
			addr := l.Addr().String()
			srv := c.Spawn(func(cc *runtime.Ctx) {
				for {
					cn, aerr := l.Accept(cc)
					if aerr != nil {
						return
					}
					cc.Spawn(func(hc *runtime.Ctx) {
						defer cn.Close()
						var req [1]byte
						if rerr := readFull(hc, cn, req[:]); rerr != nil {
							return
						}
						if req[0] == 'h' {
							// Drain the huge body through the pooled read
							// path first: every chunk arrives in a pool
							// buffer, is summed, and goes straight back.
							var bodySum int64
							for got := 0; got < poisonBody; {
								pb, rerr := cn.ReadBuf(hc, poisonBody-got)
								if rerr != nil {
									return
								}
								for _, b := range pb.Bytes() {
									bodySum += int64(b)
								}
								got += pb.Len()
								pb.Release()
							}
							if bodySum == wantBodySum {
								poisonBodiesOK.Add(1)
							}
							// Poison: a wide subtree under an already-blown
							// target whose tasks spin on suspensions forever.
							// Only the steal gate can end it.
							rc, cancel := hc.WithTarget(time.Nanosecond)
							defer cancel()
							futs := make([]*runtime.Future, 8)
							for i := range futs {
								futs[i] = rc.Spawn(func(sc *runtime.Ctx) {
									for {
										sc.Latency(500 * time.Microsecond)
									}
								})
							}
							var werr error
							for _, f := range futs {
								if e := f.AwaitErr(hc); e != nil {
									werr = e
								}
							}
							if errors.Is(werr, runtime.ErrTargetMissed) {
								poisonTyped.Add(1)
							}
							cn.Write(hc, []byte{'s'})
							return
						}
						fut := hc.Spawn(func(sc *runtime.Ctx) {
							sc.Latency(2 * time.Millisecond)
						})
						fut.Await(hc)
						cn.Write(hc, []byte{'o'})
					})
				}
			})

			request := func(cc *runtime.Ctx, kind byte) {
				cn, derr := Dial(cc, "tcp", addr)
				if derr != nil {
					other.Add(1)
					return
				}
				defer cn.Close()
				var reply [1]byte
				if kind == 'h' {
					// Stage the huge body in a pooled buffer and ship
					// header+body as one vectored write.
					pb := bufpool.Get(poisonBody)
					body := pb.Bytes()
					for i := range body {
						body[i] = byte(i)
					}
					cn.QueueWrite([]byte{kind})
					cn.QueueWrite(body)
					_, werr := cn.Flush(cc)
					pb.Release()
					if werr != nil {
						other.Add(1)
						return
					}
				} else if _, werr := cn.Write(cc, []byte{kind}); werr != nil {
					other.Add(1)
					return
				}
				if rerr := readFull(cc, cn, reply[:]); rerr != nil {
					other.Add(1)
					return
				}
				switch reply[0] {
				case 'o':
					served.Add(1)
				case 's':
					shed.Add(1)
				default:
					other.Add(1)
				}
			}

			futs := make([]*runtime.Future, 0, smalls+poisons)
			for i := 0; i < poisons; i++ {
				futs = append(futs, c.Spawn(func(cc *runtime.Ctx) { request(cc, 'h') }))
			}
			for i := 0; i < smalls; i++ {
				futs = append(futs, c.Spawn(func(cc *runtime.Ctx) { request(cc, 's') }))
			}
			for _, f := range futs {
				f.Await(c)
			}
			l.Close()
			srv.Await(c)
		})
		if err != nil {
			t.Fatalf("seed %d: Run: %v (faults: %s)", seed, err, inj.Summary())
		}
		if st.Stalled {
			t.Fatalf("seed %d: watchdog fired during poison overload", seed)
		}
		if served.Load() != smalls || other.Load() != 0 {
			t.Fatalf("seed %d: served=%d shed=%d other=%d, want %d small served and 0 other",
				seed, served.Load(), shed.Load(), other.Load(), smalls)
		}
		if shed.Load() != poisons {
			t.Fatalf("seed %d: shed=%d, want all %d poisons shed", seed, shed.Load(), poisons)
		}
		if poisonTyped.Load() != poisons {
			t.Fatalf("seed %d: %d/%d poison subtrees unwound with ErrTargetMissed",
				seed, poisonTyped.Load(), poisons)
		}
		if poisonBodiesOK.Load() != poisons {
			t.Fatalf("seed %d: %d/%d pooled poison bodies arrived intact",
				seed, poisonBodiesOK.Load(), poisons)
		}
		if st.TargetCancels < 1 {
			t.Fatalf("seed %d: TargetCancels = %d, want >= 1", seed, st.TargetCancels)
		}
		ioWaitGoroutines(t, base+3)
	}
}

// TestChaosOverloadStealLatency inflates the cost of work distribution
// itself: most steal attempts stall for a few milliseconds before
// proceeding, as if the steal path were contended or the victim remote.
// The echo workload must still complete exactly — owners keep their own
// deques moving while thieves crawl — and the watchdog must stay quiet.
func TestChaosOverloadStealLatency(t *testing.T) {
	for _, seed := range ioChaosSeeds {
		inj := faultpoint.New(seed).
			Set(faultpoint.Steal,
				faultpoint.Rule{Action: faultpoint.Delay, Rate: 0.7, Delay: 2 * time.Millisecond}).
			Set(faultpoint.PollComplete,
				faultpoint.Rule{Action: faultpoint.Delay, Rate: 0.2, Delay: 2 * time.Millisecond})
		got, st, err := runIOChaos(t, ioChaosConfig(seed, inj))
		if err != nil {
			t.Fatalf("seed %d: Run: %v (faults: %s)", seed, err, inj.Summary())
		}
		if got != ioChaosWant {
			t.Fatalf("seed %d: byte sum = %d, want %d (faults: %s)",
				seed, got, ioChaosWant, inj.Summary())
		}
		if st.Stalled {
			t.Fatalf("seed %d: watchdog fired on inflated steal latency", seed)
		}
		if inj.Evaluated(faultpoint.Steal) == 0 {
			t.Fatalf("seed %d: scenario never evaluated the Steal fault point", seed)
		}
	}
}

package io

import (
	"bytes"
	"errors"
	"net"
	"testing"
	"time"

	"lhws/internal/runtime"
)

// neverReadyPeer opens a raw listening socket whose accepted connection
// never sends a byte: the task-side read against it can only finish via
// cancellation or the watchdog. The returned cleanup closes both ends.
func neverReadyPeer(t *testing.T) (addr string, cleanup func()) {
	t.Helper()
	nl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("peer listen: %v", err)
	}
	var held net.Conn
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := nl.Accept()
		if err == nil {
			held = c // hold open so the task side sees silence, not EOF
		}
	}()
	return nl.Addr().String(), func() {
		nl.Close()
		<-done
		if held != nil {
			held.Close()
		}
	}
}

// TestReadCancelPromptUnwind: a deadline on a read that will never be
// ready must unwind the task within the kick latency, not after a
// watchdog interval. The whole run finishing fast is the
// assertion that cancellation interrupts the in-flight syscall.
func TestReadCancelPromptUnwind(t *testing.T) {
	addr, cleanup := neverReadyPeer(t)
	defer cleanup()
	start := time.Now()
	_, err := runtime.Run(runtime.Config{Workers: 2, Mode: runtime.LatencyHiding, Deadline: 30 * time.Second},
		func(c *runtime.Ctx) {
			cc, cancel := c.WithDeadline(50 * time.Millisecond)
			defer cancel()
			fut := cc.Spawn(func(child *runtime.Ctx) {
				cn, derr := Dial(child, "tcp", addr)
				if derr != nil {
					t.Errorf("dial: %v", derr)
					return
				}
				defer cn.Close()
				cn.Read(child, make([]byte, 1)) // unwinds here
				t.Error("read returned on a silent conn without cancellation")
			})
			if werr := fut.AwaitErr(c); !errors.Is(werr, runtime.ErrDeadline) {
				t.Errorf("AwaitErr = %v, want ErrDeadline", werr)
			}
		})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("canceled read took %v to unwind; kick is not prompt", el)
	}
}

// TestAcceptCancel: same promptness contract for a pending Accept with
// no connection ever arriving.
func TestAcceptCancel(t *testing.T) {
	_, err := runtime.Run(runtime.Config{Workers: 2, Mode: runtime.LatencyHiding, Deadline: 30 * time.Second},
		func(c *runtime.Ctx) {
			l, lerr := Listen(c, "tcp", "127.0.0.1:0")
			if lerr != nil {
				t.Errorf("listen: %v", lerr)
				return
			}
			defer l.Close()
			cc, cancel := c.WithDeadline(50 * time.Millisecond)
			defer cancel()
			fut := cc.Spawn(func(child *runtime.Ctx) {
				l.Accept(child) // unwinds here
				t.Error("accept returned without a connection or cancellation")
			})
			if werr := fut.AwaitErr(c); !errors.Is(werr, runtime.ErrDeadline) {
				t.Errorf("AwaitErr = %v, want ErrDeadline", werr)
			}
		})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestCancelThenReuse pins conn hygiene after a canceled operation: the
// kick poisons only the canceled attempt (every attempt starts by
// clearing its direction's deadline), so the same Conn must work
// normally from a live scope afterwards.
func TestCancelThenReuse(t *testing.T) {
	_, err := runtime.Run(runtime.Config{Workers: 2, Mode: runtime.LatencyHiding, Deadline: 30 * time.Second},
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

			// Round 1: read with nothing written — the deadline unwinds it.
			cc, cancel := c.WithDeadline(50 * time.Millisecond)
			fut := cc.Spawn(func(child *runtime.Ctx) {
				cn.Read(child, make([]byte, 4))
				t.Error("read on idle echo conn returned without data")
			})
			if werr := fut.AwaitErr(c); !errors.Is(werr, runtime.ErrDeadline) {
				t.Errorf("AwaitErr = %v, want ErrDeadline", werr)
			}
			cancel()

			// Round 2: the conn still works from the parent scope.
			if _, werr := cn.Write(c, []byte("ping")); werr != nil {
				t.Errorf("post-cancel write: %v", werr)
			}
			in := make([]byte, 4)
			if rerr := readFull(c, cn, in); rerr != nil {
				t.Errorf("post-cancel read: %v", rerr)
			} else if string(in) != "ping" {
				t.Errorf("post-cancel echo = %q, want %q", in, "ping")
			}

			cn.Close()
			l.Close()
			srv.Await(c)
		})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestCancelThenReuseWrite is TestCancelThenReuse for the write
// direction, where the successor's first move is the inline attempt. A
// task parked in a large write is canceled; the parent writes on the same
// conn at once, typically while the kicked waiter is still inside its
// socket call holding wrTurn. The inline attempt must stand aside
// (TryLock, no deadline touched): the peer sees some prefix of the
// canceled payload, then the successor's bytes whole and nothing after
// them, and the run ends — an erased kick would strand the predecessor's
// waiter and hang the dispatcher's close.
func TestCancelThenReuseWrite(t *testing.T) {
	const rounds = 6
	big := bytes.Repeat([]byte{0xAA}, 8<<20)
	tail := bytes.Repeat([]byte{0xBB}, 4096)
	for r := 0; r < rounds; r++ {
		p := newGatedPeer(t)
		_, err := runtime.Run(runtime.Config{Workers: 2, Mode: runtime.LatencyHiding, Deadline: 30 * time.Second},
			func(c *runtime.Ctx) {
				cn, derr := Dial(c, "tcp", p.addr)
				if derr != nil {
					t.Errorf("dial: %v", derr)
					return
				}
				defer cn.Close()
				cc, cancel := c.WithDeadline(20 * time.Millisecond)
				fut := cc.Spawn(func(child *runtime.Ctx) {
					cn.Write(child, big) // parks on the full socket; unwinds here
					t.Error("8 MB write to a stalled peer returned without cancellation")
				})
				if werr := fut.AwaitErr(c); !errors.Is(werr, runtime.ErrDeadline) {
					t.Errorf("AwaitErr = %v, want ErrDeadline", werr)
				}
				cancel()
				time.AfterFunc(20*time.Millisecond, p.release)
				if n, werr := cn.Write(c, tail); n != len(tail) || werr != nil {
					t.Errorf("post-cancel write = %d, %v; want %d, nil", n, werr, len(tail))
				}
			})
		if err != nil {
			t.Fatalf("round %d: Run: %v", r, err)
		}
		got := p.wait(t)
		cut := bytes.IndexByte(got, 0xBB)
		if cut <= 0 || !bytes.Equal(got[:cut], big[:cut]) || !bytes.Equal(got[cut:], tail) {
			t.Fatalf("round %d: peer read %d bytes, first successor byte at %d; want a canceled prefix then exactly the successor's %d bytes",
				r, len(got), cut, len(tail))
		}
	}
}

// TestNeverReadyFDStall is the watchdog classification gate: a read that
// can never complete (and is under no deadline) must surface as a
// *StallError whose report names the io-read site with KindFD — the
// diagnostic that distinguishes "stuck on a socket" from stuck timers,
// channels, or futures.
func TestNeverReadyFDStall(t *testing.T) {
	addr, cleanup := neverReadyPeer(t)
	defer cleanup()
	_, err := runtime.Run(runtime.Config{Workers: 2, Mode: runtime.LatencyHiding,
		StallTimeout: 150 * time.Millisecond, Deadline: 30 * time.Second},
		func(c *runtime.Ctx) {
			cn, derr := Dial(c, "tcp", addr)
			if derr != nil {
				t.Errorf("dial: %v", derr)
				return
			}
			defer cn.Close()
			cn.Read(c, make([]byte, 1)) // stalls; the watchdog aborts the run
		})
	var se *runtime.StallError
	if !errors.As(err, &se) {
		t.Fatalf("Run error = %v, want *StallError", err)
	}
	found := false
	for _, w := range se.Waits {
		if w.Site == "io-read" && w.Kind == runtime.KindFD {
			found = true
		}
	}
	if !found {
		t.Fatalf("stall report lacks the io-read/KindFD wait: %v", se)
	}
}

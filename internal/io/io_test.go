package io

import (
	"bytes"
	"fmt"
	stdio "io"
	"net"
	"os"
	goruntime "runtime"
	"sync"
	"testing"
	"time"

	"lhws/internal/runtime"
)

// TestMain raises GOMAXPROCS as the runtime package's tests do: waiters,
// peers, and workers must genuinely interleave on single-core hosts.
func TestMain(m *testing.M) {
	if goruntime.GOMAXPROCS(0) < 4 {
		goruntime.GOMAXPROCS(4)
	}
	os.Exit(m.Run())
}

// readFull reads exactly len(p) bytes (Conn.Read, like net.Conn.Read,
// may return short).
func readFull(c *runtime.Ctx, cn *Conn, p []byte) error {
	for off := 0; off < len(p); {
		n, err := cn.Read(c, p[off:])
		off += n
		if err != nil {
			return err
		}
	}
	return nil
}

// echoServe is the task-side echo server: accept until the listener
// closes, one handler task per connection, each echoing fixed-size
// frames until EOF.
func echoServe(c *runtime.Ctx, l *Listener, frame int) {
	for {
		cn, err := l.Accept(c)
		if err != nil {
			return
		}
		c.Spawn(func(cc *runtime.Ctx) {
			defer cn.Close()
			buf := make([]byte, frame)
			for {
				if err := readFull(cc, cn, buf); err != nil {
					return
				}
				if _, err := cn.Write(cc, buf); err != nil {
					return
				}
			}
		})
	}
}

// TestEchoLatencyHiding is the integration spine: a task-side echo
// server and C > P client tasks doing framed roundtrips over real TCP,
// everything suspending instead of blocking. With only 2 workers and 8
// concurrent clients plus server tasks, the test deadlocks in minutes if
// any operation ever holds a worker.
func TestEchoLatencyHiding(t *testing.T) {
	const frame, clients, rounds = 8, 8, 5
	_, err := runtime.Run(runtime.Config{Workers: 2, Mode: runtime.LatencyHiding, Deadline: 60 * time.Second},
		func(c *runtime.Ctx) {
			l, err := Listen(c, "tcp", "127.0.0.1:0")
			if err != nil {
				t.Errorf("listen: %v", err)
				return
			}
			addr := l.Addr().String()
			srv := c.Spawn(func(cc *runtime.Ctx) { echoServe(cc, l, frame) })
			futs := make([]*runtime.Future, clients)
			for i := 0; i < clients; i++ {
				id := byte(i)
				futs[i] = c.Spawn(func(cc *runtime.Ctx) {
					cn, err := Dial(cc, "tcp", addr)
					if err != nil {
						t.Errorf("dial: %v", err)
						return
					}
					defer cn.Close()
					out := bytes.Repeat([]byte{id}, frame)
					in := make([]byte, frame)
					for r := 0; r < rounds; r++ {
						if _, err := cn.Write(cc, out); err != nil {
							t.Errorf("client %d write: %v", id, err)
							return
						}
						if err := readFull(cc, cn, in); err != nil {
							t.Errorf("client %d read: %v", id, err)
							return
						}
						if !bytes.Equal(in, out) {
							t.Errorf("client %d: echo mismatch %v != %v", id, in, out)
							return
						}
					}
				})
			}
			for _, f := range futs {
				f.Await(c)
			}
			l.Close()
			srv.Await(c)
		})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestEchoBlockingMode runs the same code in Blocking mode (the paper's
// baseline): correctness is identical, only the workers park. Client
// concurrency stays below P because in blocking mode every pending
// operation genuinely occupies a worker.
func TestEchoBlockingMode(t *testing.T) {
	const frame, rounds = 8, 5
	_, err := runtime.Run(runtime.Config{Workers: 4, Mode: runtime.Blocking, Deadline: 60 * time.Second},
		func(c *runtime.Ctx) {
			l, err := Listen(c, "tcp", "127.0.0.1:0")
			if err != nil {
				t.Errorf("listen: %v", err)
				return
			}
			srv := c.Spawn(func(cc *runtime.Ctx) { echoServe(cc, l, frame) })
			cn, err := Dial(c, "tcp", l.Addr().String())
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			out := []byte("blkframe")
			in := make([]byte, frame)
			for r := 0; r < rounds; r++ {
				if _, err := cn.Write(c, out); err != nil {
					t.Errorf("write: %v", err)
					break
				}
				if err := readFull(c, cn, in); err != nil {
					t.Errorf("read: %v", err)
					break
				}
				if !bytes.Equal(in, out) {
					t.Errorf("echo mismatch %q != %q", in, out)
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

// TestEchoHidingBeatsBlocking is the paper's central claim on real
// sockets. One echo server — an accept loop plus a handler task per
// connection, each request costing a wall-clock δ before its reply —
// runs unchanged in both modes, driven by C plain-goroutine clients. In
// Blocking mode every socket wait and every δ holds a worker; the root's
// AwaitChan and the accept loop pin two of the P = 4, so two handlers run
// at a time and the wall is about C/2 · rounds · δ. Latency hiding
// overlaps every connection's δ, so its wall is about rounds · δ. The
// gate is 3×; measured about 7.5×.
func TestEchoHidingBeatsBlocking(t *testing.T) {
	const conns, rounds, delta = 16, 2, 20 * time.Millisecond
	bl := echoWall(t, runtime.Blocking, conns, rounds, delta)
	lh := echoWall(t, runtime.LatencyHiding, conns, rounds, delta)
	t.Logf("C=%d, %d rounds, δ=%v: blocking %v, latency hiding %v (%.1fx)",
		conns, rounds, delta, bl, lh, float64(bl)/float64(lh))
	if lh*3 > bl {
		t.Errorf("latency hiding %v is not 3x faster than blocking %v", lh, bl)
	}
}

// echoWall serves conns clients of rounds δ-delayed echoes each under
// mode and returns the clients' wall time from first dial to last reply.
func echoWall(t *testing.T, mode runtime.Mode, conns, rounds int, delta time.Duration) time.Duration {
	const frame = 16
	addrCh := make(chan string, 1)
	done := make(chan struct{})
	var wall time.Duration
	go func() { // the load: plain goroutines, not tasks
		defer close(done)
		addr, ok := <-addrCh
		if !ok {
			return
		}
		start := time.Now()
		var wg sync.WaitGroup
		for i := 0; i < conns; i++ {
			wg.Add(1)
			go func(id byte) {
				defer wg.Done()
				nc, err := net.Dial("tcp", addr)
				if err != nil {
					t.Errorf("%v: dial: %v", mode, err)
					return
				}
				defer nc.Close()
				out, in := bytes.Repeat([]byte{id}, frame), make([]byte, frame)
				for r := 0; r < rounds; r++ {
					if _, err := nc.Write(out); err != nil {
						t.Errorf("%v: client %d write: %v", mode, id, err)
						return
					}
					if _, err := stdio.ReadFull(nc, in); err != nil || !bytes.Equal(in, out) {
						t.Errorf("%v: client %d read %v, %v; want its own frame", mode, id, in, err)
						return
					}
				}
			}(byte(i))
		}
		wg.Wait()
		wall = time.Since(start)
	}()
	_, err := runtime.Run(runtime.Config{Workers: 4, Mode: mode, Deadline: 60 * time.Second},
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
						buf := make([]byte, frame)
						for readFull(hc, cn, buf) == nil {
							hc.Latency(delta)
							if _, werr := cn.Write(hc, buf); werr != nil {
								return
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
		t.Fatalf("%v: Run: %v", mode, err)
	}
	return wall
}

// TestDialError: a dial to a dead port must surface the OS error, not
// hang or panic.
func TestDialError(t *testing.T) {
	_, err := runtime.Run(runtime.Config{Workers: 2, Mode: runtime.LatencyHiding, Deadline: 30 * time.Second},
		func(c *runtime.Ctx) {
			// Grab a port and close it so nothing listens there.
			l, err := Listen(c, "tcp", "127.0.0.1:0")
			if err != nil {
				t.Errorf("listen: %v", err)
				return
			}
			addr := l.Addr().String()
			l.Close()
			if _, err := Dial(c, "tcp", addr); err == nil {
				t.Error("dial to closed port succeeded")
			}
		})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestNoGoroutineLeak: the dispatcher's close is synchronous, so every
// waiter goroutine is gone when Run returns.
func TestNoGoroutineLeak(t *testing.T) {
	base := goruntime.NumGoroutine()
	for i := 0; i < 3; i++ {
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
				cn.Write(c, []byte{1, 2, 3, 4})
				buf := make([]byte, 4)
				readFull(c, cn, buf)
				cn.Close()
				l.Close()
				srv.Await(c)
			})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if goruntime.NumGoroutine() <= base+3 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	n := goruntime.Stack(buf, true)
	t.Fatalf("goroutines leaked: %d -> %d\n%s", base, goruntime.NumGoroutine(),
		fmt.Sprintf("%s", buf[:n]))
}

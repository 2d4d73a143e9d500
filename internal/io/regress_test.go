package io

import (
	"errors"
	"net"
	"testing"
	"time"

	"lhws/internal/runtime"
)

// noDeadlineConn simulates a net.Conn implementation without working
// deadlines (SetDeadline errors). The dispatcher cannot kick such a
// conn, so Wrap must reject it up front.
type noDeadlineConn struct{ net.Conn }

func (noDeadlineConn) SetDeadline(time.Time) error {
	return errors.New("deadlines not supported")
}

// TestWrapRejectsDeadlinelessConn: a conn whose SetDeadline fails would
// strand its waiter forever (no kick) and hang the run's shutdown; Wrap probes and fails fast instead.
func TestWrapRejectsDeadlinelessConn(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	_, err := runtime.Run(runtime.Config{Workers: 1, Mode: runtime.LatencyHiding, Deadline: 10 * time.Second},
		func(c *runtime.Ctx) {
			if _, werr := Wrap(c, noDeadlineConn{a}); werr == nil {
				t.Error("Wrap accepted a conn whose SetDeadline fails")
			}
		})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestWrapAdoptsRealConn is the positive half: a deadline-capable TCP
// conn wraps fine and the wrapped conn works end to end.
func TestWrapAdoptsRealConn(t *testing.T) {
	_, err := runtime.Run(runtime.Config{Workers: 2, Mode: runtime.LatencyHiding, Deadline: 30 * time.Second},
		func(c *runtime.Ctx) {
			l, lerr := Listen(c, "tcp", "127.0.0.1:0")
			if lerr != nil {
				t.Errorf("listen: %v", lerr)
				return
			}
			srv := c.Spawn(func(cc *runtime.Ctx) { echoServe(cc, l, 4) })
			raw, derr := net.Dial("tcp", l.Addr().String())
			if derr != nil {
				t.Errorf("dial: %v", derr)
				return
			}
			cn, werr := Wrap(c, raw)
			if werr != nil {
				t.Errorf("Wrap rejected a TCP conn: %v", werr)
				raw.Close()
				return
			}
			if _, werr := cn.Write(c, []byte("ping")); werr != nil {
				t.Errorf("write: %v", werr)
			}
			in := make([]byte, 4)
			if rerr := readFull(c, cn, in); rerr != nil {
				t.Errorf("read: %v", rerr)
			} else if string(in) != "ping" {
				t.Errorf("echo = %q, want %q", in, "ping")
			}
			cn.Close()
			l.Close()
			srv.Await(c)
		})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestDialsBypassBridgePool: a dial holds its goroutine for the whole
// connect. Regression: dials once occupied pooled bridges, and cap
// concurrent slow dials starved every queued read/write/accept until OS
// connect timeouts expired. Every op has its own waiter now; 24
// concurrent dials — well past the old cap of max(2P, 8) — must all
// complete.
func TestDialsBypassBridgePool(t *testing.T) {
	nl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("peer listen: %v", err)
	}
	defer nl.Close()
	var held []net.Conn
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			c, aerr := nl.Accept()
			if aerr != nil {
				return
			}
			held = append(held, c)
		}
	}()
	defer func() {
		nl.Close()
		<-done
		for _, c := range held {
			c.Close()
		}
	}()

	_, err = runtime.Run(runtime.Config{Workers: 4, Mode: runtime.LatencyHiding, Deadline: 30 * time.Second},
		func(c *runtime.Ctx) {
			const dials = 24
			conns := make([]*Conn, dials)
			futs := make([]*runtime.Future, dials)
			for i := 0; i < dials; i++ {
				i := i
				futs[i] = c.Spawn(func(child *runtime.Ctx) {
					cn, derr := Dial(child, "tcp", nl.Addr().String())
					if derr != nil {
						t.Errorf("dial %d: %v", i, derr)
						return
					}
					conns[i] = cn
				})
			}
			for _, f := range futs {
				f.Await(c)
			}
			for _, cn := range conns {
				if cn != nil {
					cn.Close()
				}
			}
		})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

package io

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"lhws/internal/admit"
	"lhws/internal/runtime"
)

// fakeGate counts consultations and optionally fails intake.
type fakeGate struct {
	calls atomic.Int32
	err   error
}

func (g *fakeGate) AcquireAccept(*runtime.Ctx) error {
	g.calls.Add(1)
	return g.err
}

// TestAcceptConsultsGate checks that an installed gate is consulted per
// Accept and that its typed refusal surfaces as Accept's error without
// touching the socket.
func TestAcceptConsultsGate(t *testing.T) {
	sentinel := errors.New("intake closed")
	_, err := runtime.Run(runtime.Config{Workers: 2, Deadline: 30 * time.Second}, func(c *runtime.Ctx) {
		l, err := Listen(c, "tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("Listen: %v", err)
		}
		defer l.Close()
		g := &fakeGate{}
		l.SetGate(g)

		// Admit one connection through a permissive gate.
		done := make(chan struct{})
		go func() {
			defer close(done)
			nc, err := net.Dial("tcp", l.Addr().String())
			if err == nil {
				nc.Close()
			}
		}()
		conn, err := l.Accept(c)
		if err != nil {
			t.Fatalf("gated Accept: %v", err)
		}
		conn.Close()
		<-done
		if g.calls.Load() != 1 {
			t.Errorf("gate consulted %d times, want 1", g.calls.Load())
		}

		// A refusing gate fails Accept typed, without accepting.
		g.err = sentinel
		if _, err := l.Accept(c); !errors.Is(err, sentinel) {
			t.Errorf("refused Accept error = %v, want sentinel", err)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestGateBackpressure wires a real admit.Controller to a Listener: with
// the credit pool exhausted the acceptor suspends (the connection waits
// in the kernel backlog) and resumes when a ticket is released.
func TestGateBackpressure(t *testing.T) {
	_, err := runtime.Run(runtime.Config{Workers: 2, Deadline: 30 * time.Second}, func(c *runtime.Ctx) {
		l, err := Listen(c, "tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("Listen: %v", err)
		}
		defer l.Close()
		ctl := admit.New(admit.Config{MaxInflight: 1})
		l.SetGate(ctl)

		tk, err := ctl.Admit(c)
		if err != nil {
			t.Fatalf("Admit: %v", err)
		}
		dialed := make(chan error, 1)
		go func() {
			nc, err := net.Dial("tcp", l.Addr().String())
			if err == nil {
				defer nc.Close()
			}
			dialed <- err
		}()

		var accepted atomic.Bool
		acceptor := c.Spawn(func(cc *runtime.Ctx) {
			conn, err := l.Accept(cc)
			if err != nil {
				t.Errorf("Accept: %v", err)
				return
			}
			accepted.Store(true)
			conn.Close()
		})
		if err := <-dialed; err != nil {
			t.Fatalf("Dial: %v", err)
		}
		c.Latency(30 * time.Millisecond)
		if accepted.Load() {
			t.Fatal("Accept completed while the credit pool was exhausted")
		}
		tk.Done()
		acceptor.Await(c)
		if !accepted.Load() {
			t.Fatal("Accept never resumed after the credit was released")
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// slowGate holds its first caller for d, as a saturated gate holds an
// acceptor until credit frees up, and passes every later one at once.
type slowGate struct {
	d     time.Duration
	calls atomic.Int32
}

func (g *slowGate) AcquireAccept(c *runtime.Ctx) error {
	if g.calls.Add(1) == 1 {
		c.Latency(g.d)
	}
	return nil
}

// TestGateWaitHoldsNoLock: an Accept suspended in its gate must hold
// nothing another acceptor on the listener needs. At P = 1 a second
// Accept that blocked on such a lock would block the only worker, and
// the first acceptor could never resume to release it.
func TestGateWaitHoldsNoLock(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		_, err := runtime.Run(runtime.Config{Workers: 1}, func(c *runtime.Ctx) {
			l, err := Listen(c, "tcp", "127.0.0.1:0")
			if err != nil {
				t.Errorf("Listen: %v", err)
				return
			}
			defer l.Close()
			l.SetGate(&slowGate{d: 50 * time.Millisecond})
			accept := func(c *runtime.Ctx) {
				conn, err := l.Accept(c)
				if err != nil {
					t.Errorf("Accept: %v", err)
					return
				}
				conn.Close()
			}
			first := c.Spawn(accept)
			c.Latency(10 * time.Millisecond) // first now waits in the gate
			for i := 0; i < 2; i++ {
				go func() {
					if nc, err := net.Dial("tcp", l.Addr().String()); err == nil {
						nc.Close()
					}
				}()
			}
			accept(c)
			first.Await(c)
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("two acceptors deadlocked: an Accept waiting in its gate holds a lock the other needs")
	}
}

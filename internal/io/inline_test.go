package io

import (
	"bytes"
	"errors"
	goio "io"
	"net"
	"sync"
	"testing"
	"time"

	"lhws/internal/runtime"
)

// These tests pin the inline first attempt of Conn.writev (tryWritev): a
// write the socket takes whole costs no suspension and no waiter, and
// everything else — a full socket, a stale kick, a canceled scope, a
// closed conn — falls through to the waiter path with its behaviour
// unchanged.

// gatedPeer is a raw TCP peer that accepts one connection and reads
// nothing until release is called; from then on it drains the conn to
// EOF. wait returns everything it read.
type gatedPeer struct {
	addr    string
	nl      net.Listener
	once    sync.Once
	gate    chan struct{}
	done    chan struct{}
	got     []byte
	readErr error
}

func newGatedPeer(t *testing.T) *gatedPeer {
	t.Helper()
	nl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("peer listen: %v", err)
	}
	p := &gatedPeer{addr: nl.Addr().String(), nl: nl, gate: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		pc, aerr := nl.Accept()
		if aerr != nil {
			p.readErr = aerr
			return
		}
		defer pc.Close()
		<-p.gate
		p.got, p.readErr = goio.ReadAll(pc)
	}()
	t.Cleanup(func() {
		p.release()
		nl.Close()
		<-p.done
	})
	return p
}

func (p *gatedPeer) release() { p.once.Do(func() { close(p.gate) }) }

// wait blocks until the task side has closed its conn and returns the
// peer's view of the stream.
func (p *gatedPeer) wait(t *testing.T) []byte {
	t.Helper()
	p.release()
	select {
	case <-p.done:
	case <-time.After(30 * time.Second):
		t.Fatal("peer never saw EOF")
	}
	if p.readErr != nil {
		t.Fatalf("peer read: %v", p.readErr)
	}
	return p.got
}

func inlineCfg(workers int) runtime.Config {
	return runtime.Config{Workers: workers, Mode: runtime.LatencyHiding, Seed: 1, Deadline: 60 * time.Second}
}

// TestInlineWriteNoSuspension: on a writable loopback conn, Write and
// QueueWrite+Flush suspend nobody and start no waiter. The dial is the
// run's only suspension and its waiter the only one ever alive.
func TestInlineWriteNoSuspension(t *testing.T) {
	p := newGatedPeer(t)
	p.release()
	const rounds = 200
	frame := []byte("inline-write-frm")
	var peak int
	var allocs float64
	st, err := runtime.Run(inlineCfg(1), func(c *runtime.Ctx) {
		cn, derr := Dial(c, "tcp", p.addr)
		if derr != nil {
			t.Errorf("dial: %v", derr)
			return
		}
		defer cn.Close()
		flush := func() {
			cn.QueueWrite(frame[:8])
			cn.QueueWrite(frame[8:])
			if n, werr := cn.Flush(c); n != len(frame) || werr != nil {
				t.Errorf("Flush = %d, %v; want %d, nil", n, werr, len(frame))
			}
		}
		for i := 0; i < rounds; i++ {
			if n, werr := cn.Write(c, frame); n != len(frame) || werr != nil {
				t.Errorf("Write = %d, %v; want %d, nil", n, werr, len(frame))
			}
			flush()
		}
		if !raceDetectorEnabled { // race instrumentation allocates
			allocs = testing.AllocsPerRun(rounds, flush)
		}
		peak = PeakBridges(c)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st.Suspensions != 1 {
		t.Errorf("Suspensions = %d, want 1 (the dial): a write that would not block suspended", st.Suspensions)
	}
	if peak != 1 {
		t.Errorf("peak waiters = %d, want 1 (the dial's)", peak)
	}
	if allocs != 0 {
		t.Errorf("QueueWrite x2 + Flush hit allocates %.2f objects, want 0", allocs)
	}
	writes := 2 * rounds
	if !raceDetectorEnabled {
		writes += rounds + 1 // AllocsPerRun's runs and its warm-up call
	}
	if got := p.wait(t); !bytes.Equal(got, bytes.Repeat(frame, writes)) {
		t.Errorf("peer read %d bytes, want %d copies of the frame", len(got), writes)
	}
}

// TestInlineWritePrefixThenWaiter: a write far larger than the socket
// buffers is an inline prefix plus a waiter remainder. The count must
// cover both (op.voff starts at the prefix) and the peer must see every
// byte once, in order.
func TestInlineWritePrefixThenWaiter(t *testing.T) {
	p := newGatedPeer(t)
	payload := make([]byte, 8<<20)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	st, err := runtime.Run(inlineCfg(2), func(c *runtime.Ctx) {
		cn, derr := Dial(c, "tcp", p.addr)
		if derr != nil {
			t.Errorf("dial: %v", derr)
			return
		}
		defer cn.Close()
		time.AfterFunc(50*time.Millisecond, p.release)
		if n, werr := cn.Write(c, payload); n != len(payload) || werr != nil {
			t.Errorf("Write = %d, %v; want %d, nil", n, werr, len(payload))
		}
		// The same through a vector whose first element fits the socket
		// and whose second does not.
		vec := net.Buffers{payload[:1024], payload[1024:]}
		if n, werr := cn.Writev(c, vec); n != len(payload) || werr != nil {
			t.Errorf("Writev = %d, %v; want %d, nil", n, werr, len(payload))
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st.Suspensions < 2 {
		t.Errorf("Suspensions = %d, want >= 2 (dial + the write's remainder)", st.Suspensions)
	}
	got := p.wait(t)
	if len(got) != 2*len(payload) || !bytes.Equal(got[:len(payload)], payload) || !bytes.Equal(got[len(payload):], payload) {
		t.Errorf("peer read %d bytes that are not the payload twice over", len(got))
	}
}

// TestInlineWriteAfterOpTimeout: an expired per-op deadline leaves the
// socket's write deadline in the past. The next write's inline attempt
// must treat that stale kick as a miss, not an error — the waiter clears
// it — and surface no timeout.
func TestInlineWriteAfterOpTimeout(t *testing.T) {
	p := newGatedPeer(t)
	big := bytes.Repeat([]byte{0xAA}, 8<<20)
	small := bytes.Repeat([]byte{0xBB}, 4096)
	var wrote int
	_, err := runtime.Run(inlineCfg(2), func(c *runtime.Ctx) {
		cn, derr := Dial(c, "tcp", p.addr)
		if derr != nil {
			t.Errorf("dial: %v", derr)
			return
		}
		defer cn.Close()
		cn.SetOpTimeout(30 * time.Millisecond)
		n, werr := cn.Write(c, big)
		if !errors.Is(werr, ErrOpTimeout) || n <= 0 || n >= len(big) {
			t.Errorf("Write to a stalled peer = %d, %v; want partial progress and ErrOpTimeout", n, werr)
		}
		wrote = n
		cn.SetOpTimeout(0)
		p.release()
		for i := 0; i < 2; i++ { // the first clears the stale kick, the second finds none
			if n, werr := cn.Write(c, small); n != len(small) || werr != nil {
				t.Errorf("Write %d after an op timeout = %d, %v; want %d, nil", i, n, werr, len(small))
			}
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := append(append([]byte{}, big[:wrote]...), bytes.Repeat(small, 2)...)
	if got := p.wait(t); !bytes.Equal(got, want) {
		t.Errorf("peer read %d bytes, want the %d-byte prefix then the two small writes (%d)", len(got), wrote, len(want))
	}
}

// TestInlineWriteCanceledHandle: a write through an already-canceled
// WithCancel handle does no I/O on the task's slice. The await's scope
// registration aborts it and the task unwinds, as before the inline
// attempt existed.
func TestInlineWriteCanceledHandle(t *testing.T) {
	p := newGatedPeer(t)
	p.release()
	_, err := runtime.Run(inlineCfg(2), func(c *runtime.Ctx) {
		cn, derr := Dial(c, "tcp", p.addr)
		if derr != nil {
			t.Errorf("dial: %v", derr)
			return
		}
		defer cn.Close()
		fut := c.Spawn(func(child *runtime.Ctx) {
			cc, cancel := child.WithCancel()
			cancel()
			bufs := net.Buffers{[]byte("never")}
			if n, rest := cn.tryWritev(cc, bufs); n != 0 || len(rest) != 1 || string(rest[0]) != "never" {
				t.Errorf("tryWritev on a canceled handle = %d, rest %q; want 0 and the vector untouched", n, rest)
			}
			// Hold the turn so the write's waiter, which the await starts
			// before the canceled scope aborts it, cannot reach the socket
			// either: whatever arrives at the peer came from the task.
			cn.wrTurn.Lock()
			defer cn.wrTurn.Unlock()
			cn.Write(cc, []byte("never"))
			t.Error("Write through a canceled handle returned")
		})
		if werr := fut.AwaitErr(c); !errors.Is(werr, runtime.ErrCanceled) {
			t.Errorf("AwaitErr = %v, want ErrCanceled", werr)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := p.wait(t); len(got) != 0 {
		t.Errorf("peer read %q from a canceled write, want nothing", got)
	}
}

// TestInlineWriteYieldsTurn: while a waiter holds the write turn — a
// kicked predecessor still inside its socket call — the inline attempt
// stands aside rather than queue the worker behind the fd's write lock
// or slip bytes in ahead of the predecessor's.
func TestInlineWriteYieldsTurn(t *testing.T) {
	p := newGatedPeer(t)
	p.release()
	_, err := runtime.Run(inlineCfg(1), func(c *runtime.Ctx) {
		cn, derr := Dial(c, "tcp", p.addr)
		if derr != nil {
			t.Errorf("dial: %v", derr)
			return
		}
		defer cn.Close()
		bufs := net.Buffers{[]byte("held")}
		cn.wrTurn.Lock()
		n, rest := cn.tryWritev(c, bufs)
		cn.wrTurn.Unlock()
		if n != 0 || len(rest) != 1 || string(rest[0]) != "held" {
			t.Errorf("tryWritev under a held turn = %d, rest %q; want 0 and the vector untouched", n, rest)
		}
		if n, rest := cn.tryWritev(c, bufs); n != 4 || len(rest) != 0 || bufs[0] != nil {
			t.Errorf("tryWritev with the turn free = %d, %d elements left, first %q; want 4, 0, nil", n, len(rest), bufs[0])
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := p.wait(t); string(got) != "held" {
		t.Errorf("peer read %q, want %q once", got, "held")
	}
}

// TestInlineWriteClosedConn: the inline attempt invents no error values.
// On a closed conn it misses and the waiter path reports net's own.
func TestInlineWriteClosedConn(t *testing.T) {
	p := newGatedPeer(t)
	p.release()
	_, err := runtime.Run(inlineCfg(1), func(c *runtime.Ctx) {
		cn, derr := Dial(c, "tcp", p.addr)
		if derr != nil {
			t.Errorf("dial: %v", derr)
			return
		}
		cn.Close()
		if n, werr := cn.Write(c, []byte("late")); n != 0 || !errors.Is(werr, net.ErrClosed) {
			t.Errorf("Write on a closed conn = %d, %v; want 0, net.ErrClosed", n, werr)
		}
		cn.QueueWrite([]byte("late"))
		if n, werr := cn.Flush(c); n != 0 || !errors.Is(werr, net.ErrClosed) {
			t.Errorf("Flush on a closed conn = %d, %v; want 0, net.ErrClosed", n, werr)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestInlineFlushNilsQueue: an inline hit consumes the vector the way
// net.Buffers does, so the queue's reused backing array does not pin the
// flushed fragments.
func TestInlineFlushNilsQueue(t *testing.T) {
	p := newGatedPeer(t)
	p.release()
	_, err := runtime.Run(inlineCfg(1), func(c *runtime.Ctx) {
		cn, derr := Dial(c, "tcp", p.addr)
		if derr != nil {
			t.Errorf("dial: %v", derr)
			return
		}
		defer cn.Close()
		cn.QueueWrite([]byte("head"))
		cn.QueueWrite([]byte("body"))
		backing := cn.wq[:2]
		if n, werr := cn.Flush(c); n != 8 || werr != nil {
			t.Errorf("Flush = %d, %v; want 8, nil", n, werr)
		}
		if backing[0] != nil || backing[1] != nil || len(cn.wq) != 0 || cap(cn.wq) < 2 {
			t.Errorf("after Flush: backing = %q, queue len %d cap %d; want nil elements in a kept array", backing, len(cn.wq), cap(cn.wq))
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := p.wait(t); string(got) != "headbody" {
		t.Errorf("peer read %q, want %q", got, "headbody")
	}
}

// TestInlineWriteNotSyscallConn: a conn without a file descriptor
// (net.Pipe) has no inline attempt and writes through the waiter, one
// suspension per write op. That makes the vector's worth countable: four
// fragments written one by one suspend four times, and the same four
// queued and flushed suspend once.
func TestInlineWriteNotSyscallConn(t *testing.T) {
	frags := [][]byte{[]byte("pi"), []byte("p"), []byte("e"), []byte("d")}
	for _, tc := range []struct {
		name        string
		suspensions int64
		write       func(c *runtime.Ctx, cn *Conn) (int, error)
	}{
		{"one write", 1, func(c *runtime.Ctx, cn *Conn) (int, error) {
			return cn.Write(c, []byte("piped"))
		}},
		{"four writes", 4, func(c *runtime.Ctx, cn *Conn) (int, error) {
			total := 0
			for _, f := range frags {
				n, err := cn.Write(c, f)
				total += n
				if err != nil {
					return total, err
				}
			}
			return total, nil
		}},
		{"four queued, one flush", 1, func(c *runtime.Ctx, cn *Conn) (int, error) {
			for _, f := range frags {
				cn.QueueWrite(f)
			}
			return cn.Flush(c)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := net.Pipe()
			defer b.Close()
			got := make(chan []byte, 1)
			go func() {
				buf, _ := goio.ReadAll(b)
				got <- buf
			}()
			st, err := runtime.Run(inlineCfg(1), func(c *runtime.Ctx) {
				cn, werr := Wrap(c, a)
				if werr != nil {
					t.Errorf("Wrap: %v", werr)
					return
				}
				defer cn.Close()
				if n, werr := tc.write(c, cn); n != 5 || werr != nil {
					t.Errorf("wrote %d, %v; want 5, nil", n, werr)
				}
			})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if st.Suspensions != tc.suspensions {
				t.Errorf("Suspensions = %d, want %d (one per write op)", st.Suspensions, tc.suspensions)
			}
			if buf := <-got; string(buf) != "piped" {
				t.Errorf("peer read %q, want %q", buf, "piped")
			}
		})
	}
}

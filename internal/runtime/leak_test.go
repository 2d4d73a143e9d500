package runtime

import (
	"errors"
	goruntime "runtime"
	"testing"
	"time"
	"weak"
)

// waitGoroutines polls until the process goroutine count drops to at
// most want, tolerating stragglers (timer goroutines, the runtime's own
// background workers) that need a beat to exit.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		goruntime.GC() // finalize dead timers promptly
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

// A panicking run must not leak the goroutines of tasks that were
// suspended when the panic struck: the fatal path aborts their waits so
// every task goroutine unwinds before Run returns.
func TestNoGoroutineLeakAfterPanic(t *testing.T) {
	base := goruntime.NumGoroutine()
	for i := 0; i < 5; i++ {
		_, err := Run(Config{Workers: 4}, func(c *Ctx) {
			ch := NewChan[int](0)
			for j := 0; j < 4; j++ {
				c.Spawn(func(c2 *Ctx) { ch.Recv(c2) }) // suspended forever
			}
			for j := 0; j < 4; j++ {
				c.Spawn(func(c2 *Ctx) { c2.Latency(time.Hour) })
			}
			c.Latency(2 * time.Millisecond)
			panic("boom")
		})
		if !errors.Is(err, ErrTaskPanic) {
			t.Fatalf("Run err = %v, want ErrTaskPanic", err)
		}
	}
	// Allow a small cushion over the baseline for unrelated runtime
	// housekeeping; a real leak here is 8+ task goroutines per iteration.
	waitGoroutines(t, base+3)
}

// Blocking mode reaches the same guarantee through the same abort path:
// receivers waiting with their worker held are woken and unwind.
func TestNoGoroutineLeakAfterPanicBlocking(t *testing.T) {
	base := goruntime.NumGoroutine()
	for i := 0; i < 5; i++ {
		_, err := Run(Config{Workers: 4, Mode: Blocking}, func(c *Ctx) {
			ch := NewChan[int](0)
			for j := 0; j < 3; j++ {
				c.Spawn(func(c2 *Ctx) { ch.Recv(c2) }) // blocks a worker each
			}
			c.Latency(5 * time.Millisecond) // let receivers park first
			panic("boom")
		})
		if !errors.Is(err, ErrTaskPanic) {
			t.Fatalf("Run err = %v, want ErrTaskPanic", err)
		}
	}
	waitGoroutines(t, base+3)
}

// An overload-shed request parked in a channel Recv — the admission
// controller's drain calls the request's bound scope cancel while the
// request waits for data that will never come — must unblock with the
// scope's typed error, and the dead waiter must not linger in the
// channel's queues: a later send/recv pair on the same channel must
// still rendezvous (a leaked claim would swallow the send), and no task
// goroutine may survive the runs. Iterating churns the waiter pool so a
// missed refcount release would also surface as goroutine growth.
func TestNoWaiterLeakAfterShedRecv(t *testing.T) {
	base := goruntime.NumGoroutine()
	for i := 0; i < 25; i++ {
		_, err := Run(Config{Workers: 2, Deadline: 30 * time.Second}, func(c *Ctx) {
			ch := NewChan[int](0)
			rc, cancel := c.WithTarget(time.Second)
			req := rc.Spawn(func(cc *Ctx) { ch.Recv(cc) })
			c.Latency(2 * time.Millisecond) // let the request park in Recv
			cancel()                        // the shed: drain cancels the bound scope
			if e := req.AwaitErr(c); !errors.Is(e, ErrCanceled) {
				t.Errorf("shed request err = %v, want ErrCanceled", e)
			}
			// The channel must have forgotten the shed receiver entirely.
			sender := c.Spawn(func(cc *Ctx) { ch.Send(cc, 7) })
			if got := ch.Recv(c); got != 7 {
				t.Errorf("post-shed Recv = %d, want 7", got)
			}
			sender.Await(c)
		})
		if err != nil {
			t.Fatalf("iteration %d: Run: %v", i, err)
		}
	}
	waitGoroutines(t, base+3)
}

// A watchdog-recovered stall must likewise drain every task goroutine.
func TestNoGoroutineLeakAfterStall(t *testing.T) {
	base := goruntime.NumGoroutine()
	for i := 0; i < 3; i++ {
		_, err := Run(Config{Workers: 2, StallTimeout: 50 * time.Millisecond}, func(c *Ctx) {
			ch := NewChan[int](0)
			fut := c.Spawn(func(c2 *Ctx) { ch.Recv(c2) }) // deadlock
			fut.Await(c)
		})
		if !errors.Is(err, ErrStalled) {
			t.Fatalf("Run err = %v, want ErrStalled", err)
		}
	}
	waitGoroutines(t, base+3)
}

// retentionProbe returns a SpawnValue body whose closure captures a fresh
// heap object, and a weak pointer to that object: once nothing keeps the
// body alive, a GC clears the pointer. With panics set, the body panics
// after touching the object.
func retentionProbe(panics bool) (func(*Ctx) int, weak.Pointer[[64]byte]) {
	p := new([64]byte)
	p[0] = 1
	return func(*Ctx) int {
		if panics {
			panic("probe")
		}
		return int(p[0])
	}, weak.Make(p)
}

// TestValueDropsBodyAfterAwait holds a *Value past its Await and checks
// that it no longer references its body, so the closure's captures die
// with the task life even while the caller keeps the result handle — on
// each way a child can end: on its own coroutine, joined inline, and
// panicking.
func TestValueDropsBodyAfterAwait(t *testing.T) {
	for _, tc := range []struct {
		name   string
		inline bool // await at once (the child is inlined) or after a suspension (it runs on its coroutine)
		panics bool
	}{
		{"coroutine", false, false},
		{"inline", true, false},
		{"panic", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := Run(benchConfig(1), func(c *Ctx) {
				f, captured := retentionProbe(tc.panics)
				v := SpawnValue(c, f)
				f = nil
				if !tc.inline {
					c.Latency(time.Millisecond) // the worker runs the child meanwhile
				}
				got, werr := v.AwaitErr(c)
				switch {
				case tc.panics && !errors.Is(werr, ErrTaskPanic):
					t.Errorf("AwaitErr = %d, %v; want ErrTaskPanic", got, werr)
				case !tc.panics && (werr != nil || got != 1):
					t.Errorf("AwaitErr = %d, %v; want 1, nil", got, werr)
				}
				if v.f != nil {
					t.Error("the Value still references its body after Await")
				}
				goruntime.GC()
				if captured.Value() != nil {
					t.Error("the body's captures are still reachable after Await")
				}
				goruntime.KeepAlive(v)
			})
			if tc.panics != errors.Is(err, ErrTaskPanic) {
				t.Fatalf("Run: %v", err)
			}
			wantInline := int64(0)
			if tc.inline {
				wantInline = 1
			}
			if st.InlineJoins != wantInline {
				t.Errorf("InlineJoins = %d, want %d", st.InlineJoins, wantInline)
			}
		})
	}
}

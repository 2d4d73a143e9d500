package timerwheel

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestFireOnce(t *testing.T) {
	w := New(100 * time.Microsecond)
	defer w.Shutdown()
	ch := make(chan any, 1)
	w.AfterFunc(time.Millisecond, func(a any) { ch <- a }, "payload")
	select {
	case got := <-ch:
		if got != "payload" {
			t.Fatalf("arg = %v, want payload", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timer never fired")
	}
}

func TestNeverEarly(t *testing.T) {
	w := New(200 * time.Microsecond)
	defer w.Shutdown()
	const d = 5 * time.Millisecond
	start := time.Now()
	done := make(chan time.Duration, 1)
	w.AfterFunc(d, func(any) { done <- time.Since(start) }, nil)
	if got := <-done; got < d {
		t.Fatalf("fired after %v, want >= %v", got, d)
	}
}

func TestStopPreventsFire(t *testing.T) {
	w := New(500 * time.Microsecond)
	defer w.Shutdown()
	var fired atomic.Int32
	tm := w.AfterFunc(20*time.Millisecond, func(any) { fired.Add(1) }, nil)
	if !tm.Stop() {
		t.Fatal("Stop = false on an armed timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop = true")
	}
	time.Sleep(40 * time.Millisecond)
	if n := fired.Load(); n != 0 {
		t.Fatalf("stopped timer fired %d times", n)
	}
}

func TestStopAfterFire(t *testing.T) {
	w := New(100 * time.Microsecond)
	defer w.Shutdown()
	ch := make(chan struct{})
	tm := w.AfterFunc(time.Millisecond, func(any) { close(ch) }, nil)
	<-ch
	if tm.Stop() {
		t.Fatal("Stop = true after the callback ran")
	}
}

// Many timers across many slots and revolutions: every one fires exactly
// once, none more than a tick early, including durations larger than a
// full wheel revolution (numSlots ticks). A timer armed mid-tick can fire
// up to one tick before its duration (a known defect listed in
// ROADMAP.md), so the early check allows that tick.
func TestManyTimersAllRevolutions(t *testing.T) {
	const tick = 50 * time.Microsecond
	w := New(tick)
	defer w.Shutdown()
	const n = 2000
	var fired atomic.Int32
	var wg sync.WaitGroup
	wg.Add(n)
	start := time.Now()
	for i := 0; i < n; i++ {
		// Spread deadlines from sub-tick to ~3 revolutions out.
		d := time.Duration(i) * 3 * numSlots * tick / n
		want := start.Add(d - tick)
		w.AfterFunc(d, func(any) {
			if time.Now().Before(want) {
				t.Errorf("timer %d fired more than a tick early", i)
			}
			fired.Add(1)
			wg.Done()
		}, nil)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("only %d/%d timers fired", fired.Load(), n)
	}
}

func TestConcurrentArmStop(t *testing.T) {
	w := New(100 * time.Microsecond)
	defer w.Shutdown()
	var fired, stopped atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tm := w.AfterFunc(time.Duration(i%7)*200*time.Microsecond,
					func(any) { fired.Add(1) }, nil)
				if i%2 == 0 {
					if tm.Stop() {
						stopped.Add(1)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	// Every armed timer is either stopped or fires; wait for the rest.
	deadline := time.Now().Add(5 * time.Second)
	for fired.Load()+stopped.Load() < 8*500 {
		if time.Now().After(deadline) {
			t.Fatalf("fired %d + stopped %d != %d", fired.Load(), stopped.Load(), 8*500)
		}
		time.Sleep(time.Millisecond)
	}
	if got := fired.Load() + stopped.Load(); got != 8*500 {
		t.Fatalf("fired+stopped = %d, want %d (double fire or double stop)", got, 8*500)
	}
}

// Shutdown guarantees no callback runs after it returns, and abandons
// armed timers without firing them.
func TestShutdownQuiesces(t *testing.T) {
	w := New(100 * time.Microsecond)
	var running atomic.Bool
	var after atomic.Bool
	for i := 0; i < 64; i++ {
		w.AfterFunc(time.Duration(i)*100*time.Microsecond, func(any) {
			running.Store(true)
			time.Sleep(50 * time.Microsecond)
			running.Store(false)
			if after.Load() {
				t.Error("callback ran after Shutdown returned")
			}
		}, nil)
	}
	time.Sleep(2 * time.Millisecond)
	w.Shutdown()
	after.Store(true)
	if running.Load() {
		t.Fatal("callback still running when Shutdown returned")
	}
	// Arm-after-shutdown never fires and reports unstoppable.
	tm := w.AfterFunc(time.Millisecond, func(any) { t.Error("fired after shutdown") }, nil)
	if tm.Stop() {
		t.Fatal("Stop = true on a timer armed after Shutdown")
	}
	time.Sleep(5 * time.Millisecond)
	w.Shutdown() // idempotent
}

// A callback may re-arm and stop timers on its own wheel without
// deadlocking (fires happen outside the wheel mutex).
func TestReentrantCallbacks(t *testing.T) {
	w := New(100 * time.Microsecond)
	defer w.Shutdown()
	done := make(chan struct{})
	var hops int
	var hop func(any)
	hop = func(any) {
		hops++
		if hops == 5 {
			close(done)
			return
		}
		tm := w.AfterFunc(time.Hour, func(any) {}, nil)
		tm.Stop()
		w.AfterFunc(200*time.Microsecond, hop, nil)
	}
	w.AfterFunc(200*time.Microsecond, hop, nil)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("chain stalled after %d hops", hops)
	}
}

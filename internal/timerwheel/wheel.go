// Package timerwheel is a hashed timer wheel: many timers, one goroutine.
//
// The latency-hiding runtime arms a timer per suspension (every Latency
// call, every WithDeadline scope, every fault-delayed wakeup). With
// time.AfterFunc each armed timer is an entry in the Go runtime's timer
// heap and — worse for this workload — each *fire* is a separate timer
// goroutine wakeup. Ten thousand tasks sleeping on Latency is ten
// thousand heap entries churned per round. A hashed wheel (Varghese &
// Lauck) makes arm and stop O(1) list operations under one mutex and
// fires every timer due in a tick from a single goroutine, which is also
// what lets the runtime batch the resulting re-injections: timers firing
// in the same tick land in the same drainResumed batch and re-enter the
// scheduler as one pfor-tree deque item.
//
// Precision is deliberately coarse: a timer fires within one tick after
// its deadline (default 250µs). Callers that need sub-tick precision are
// modelling something other than I/O latency.
package timerwheel

import (
	"sync"
	"sync/atomic"
	"time"
)

const (
	// DefaultTick is the default wheel granularity. Fine enough that a
	// 1ms Latency overshoots by at most 25%, coarse enough that an idle
	// wheel waking every tick costs well under 1% of one core.
	DefaultTick = 250 * time.Microsecond
	// numSlots is the wheel size (a power of two). Timers further out
	// than numSlots ticks simply stay in their slot across revolutions;
	// the per-visit "due yet?" check costs one comparison.
	numSlots = 256
)

// Timer states: armed until exactly one of Stop or the fire loop claims
// it with a CAS.
const (
	tArmed int32 = iota
	tFired
	tStopped
)

// Timer is one scheduled callback. A Timer is single-shot per arming.
// A Timer from AfterFunc or AfterFuncT is never re-armed. Caller-owned
// storage armed with AfterFuncInto may be armed again once its callback
// has started: the fire loop drops the Timer before it calls back. A
// Timer that Stop claimed must never be armed again, because the fire
// loop may still hold it in the batch it is scanning.
type Timer struct {
	wheel      *Wheel
	next, prev *Timer // intrusive slot list; guarded by wheel.mu
	linked     bool   // on a slot list; guarded by wheel.mu
	when       int64  // absolute tick of expiry
	state      atomic.Int32
	f          func(any)
	ft         func(*Timer, any) // set instead of f by AfterFuncT
	arg        any
}

// Stop cancels the timer. It reports true if the timer was still armed —
// the callback will never run; false means the callback has fired or is
// firing concurrently (Stop does not wait for it, matching time.Timer).
func (t *Timer) Stop() bool {
	if !t.state.CompareAndSwap(tArmed, tStopped) {
		return false
	}
	w := t.wheel
	w.mu.Lock()
	if t.linked {
		w.unlink(t)
		w.armed--
	}
	w.mu.Unlock()
	return true
}

// Wheel is a hashed timer wheel. The zero value is not usable; construct
// with New. One goroutine, started lazily on the first AfterFunc, drives
// all timers; it parks when no timer is armed and exits on Shutdown.
type Wheel struct {
	tick  time.Duration
	start time.Time // tick origin

	mu      sync.Mutex
	slots   [numSlots]*Timer // heads of the per-slot lists
	cur     int64            // next tick to scan (all earlier ticks fired)
	armed   int              // timers currently linked
	running bool             // the run goroutine exists
	stopped bool

	// wake nudges the run goroutine: a new arm while it parks (or sleeps
	// a full tick) and the shutdown signal. Buffered so arming never
	// blocks; a spurious token only costs one extra scan.
	wake chan struct{}
	// exited is closed by the run goroutine on the way out so Shutdown
	// can guarantee no callback runs after it returns.
	exited chan struct{}
}

// New returns a wheel with the given tick granularity (DefaultTick if
// tick <= 0).
func New(tick time.Duration) *Wheel {
	if tick <= 0 {
		tick = DefaultTick
	}
	return &Wheel{
		tick:   tick,
		start:  time.Now(),
		wake:   make(chan struct{}, 1),
		exited: make(chan struct{}),
	}
}

// now returns the current absolute tick.
func (w *Wheel) now() int64 { return int64(time.Since(w.start) / w.tick) }

// AfterFunc schedules f(arg) to run once, no earlier than d from now and
// within roughly one tick after. f runs on the wheel goroutine and must
// not block it for long; it may arm and stop other timers on the same
// wheel. Taking f and arg separately (instead of a closure) keeps the
// hot callers allocation-free: they pass a package-level function and
// the waiter they already hold.
func (w *Wheel) AfterFunc(d time.Duration, f func(any), arg any) *Timer {
	t := new(Timer)
	w.AfterFuncInto(t, d, f, arg)
	return t
}

// AfterFuncInto is AfterFunc arming caller-owned storage t instead of
// allocating a Timer, so an object that embeds its Timer arms it with no
// allocation. t must be unarmed: zero, or last armed by AfterFuncInto and
// already fired (see Timer).
func (w *Wheel) AfterFuncInto(t *Timer, d time.Duration, f func(any), arg any) {
	t.wheel, t.f, t.ft, t.arg = w, f, nil, arg
	t.state.Store(tArmed)
	w.schedule(t, d)
}

// AfterFuncT is AfterFunc for callbacks that need the timer's identity:
// f receives the *Timer being fired alongside arg. Callers that re-arm
// deadlines on a recycled object (the I/O layer's per-op deadlines) use
// this to tell a stale fire from the current one — the callback compares
// the fired timer against the one currently stored on the object and
// returns if they differ.
func (w *Wheel) AfterFuncT(d time.Duration, f func(*Timer, any), arg any) *Timer {
	return w.schedule(&Timer{wheel: w, ft: f, arg: arg}, d)
}

func (w *Wheel) schedule(t *Timer, d time.Duration) *Timer {
	// Round up: a timer must never fire early, and a 0-duration timer
	// still waits for the next tick boundary.
	ticks := int64((d + w.tick - 1) / w.tick)
	if ticks < 1 {
		ticks = 1
	}
	w.mu.Lock()
	if w.stopped {
		// Arming after Shutdown: the timer will never fire. Mark it
		// stopped so Stop reports false and callers' accounting (which
		// keys off Stop's return) treats it as already consumed.
		w.mu.Unlock()
		t.state.Store(tStopped)
		return t
	}
	t.when = w.now() + ticks
	if t.when < w.cur {
		t.when = w.cur // never schedule into an already-scanned tick
	}
	w.link(t)
	w.armed++
	starting := !w.running
	if starting {
		w.running = true
	}
	w.mu.Unlock()
	if starting {
		go w.run()
	} else {
		select {
		case w.wake <- struct{}{}:
		default:
		}
	}
	return t
}

// Shutdown stops the wheel and waits for the run goroutine to exit. On
// return no timer callback is running or will ever run again; armed
// timers are abandoned without firing. Arming after Shutdown is a no-op.
func (w *Wheel) Shutdown() {
	w.mu.Lock()
	if w.stopped {
		started := w.running
		w.mu.Unlock()
		if started {
			<-w.exited
		}
		return
	}
	w.stopped = true
	started := w.running
	w.mu.Unlock()
	if !started {
		return
	}
	select {
	case w.wake <- struct{}{}:
	default:
	}
	<-w.exited
}

// link inserts t at the head of its slot's list. Caller holds mu.
func (w *Wheel) link(t *Timer) {
	head := &w.slots[t.when&(numSlots-1)]
	t.next = *head
	if t.next != nil {
		t.next.prev = t
	}
	t.prev = nil
	t.linked = true
	*head = t
}

// unlink removes t from its slot's list. Caller holds mu.
func (w *Wheel) unlink(t *Timer) {
	head := &w.slots[t.when&(numSlots-1)]
	if t.prev != nil {
		t.prev.next = t.next
	} else {
		*head = t.next
	}
	if t.next != nil {
		t.next.prev = t.prev
	}
	t.next, t.prev = nil, nil
	t.linked = false
}

// run is the wheel goroutine: scan the slots the clock has passed, fire
// what is due, sleep to the next tick boundary; park entirely while no
// timer is armed. Callbacks run outside the wheel mutex so they may
// freely Stop or arm other timers.
func (w *Wheel) run() {
	defer close(w.exited)
	sleep := time.NewTimer(time.Hour)
	defer sleep.Stop()
	var due []*Timer
	for {
		w.mu.Lock()
		if w.stopped {
			w.mu.Unlock()
			return
		}
		now := w.now()
		due = due[:0]
		for w.cur <= now {
			for t := w.slots[w.cur&(numSlots-1)]; t != nil; {
				next := t.next
				if t.when <= w.cur {
					w.unlink(t)
					w.armed--
					due = append(due, t)
				}
				t = next
			}
			w.cur++
		}
		idle := w.armed == 0
		w.mu.Unlock()

		for i, t := range due {
			due[i] = nil
			if t.state.CompareAndSwap(tArmed, tFired) {
				if t.ft != nil {
					t.ft(t, t.arg)
				} else {
					t.f(t.arg)
				}
			}
		}

		if idle {
			<-w.wake
			continue
		}
		// Sleep to the next tick boundary (w.cur is now one past the
		// last scanned tick). A new arm or Shutdown nudges us early.
		// Timer channels are synchronous since Go 1.23, so Reset after
		// an abandoned sleep needs no drain.
		d := time.Until(w.start.Add(time.Duration(w.cur) * w.tick))
		if d <= 0 {
			continue
		}
		sleep.Reset(d)
		select {
		case <-sleep.C:
		case <-w.wake:
			sleep.Stop()
		}
	}
}

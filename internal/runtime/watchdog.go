package runtime

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"
)

// ErrStalled reports that the suspension watchdog detected a
// no-progress interval: live tasks remained, no worker was running
// anything, and no wakeup was pending. Errors returned for stalls are
// *StallError values wrapping ErrStalled.
var ErrStalled = errors.New("runtime: stalled (suspended tasks with no pending wakeup)")

// StallWait describes one suspension outstanding at stall time.
type StallWait struct {
	// Site names the suspending operation: "latency", "await",
	// "chan-recv", "chan-send", or an external-await site such as
	// "io-read".
	Site string
	// Kind classifies what the task was stuck on — timer, future,
	// channel, fd, or generic external completion — so a stall report
	// distinguishes a never-ready fd from a lost timer wakeup.
	Kind WaitKind
	// Age is how long the task had been suspended when the stall was
	// declared.
	Age time.Duration
	// Worker is the worker the task suspended from: the owner of its
	// deque, for a wait that has one. A join wait ("await" in
	// LatencyHiding mode) pins no deque, and its Deque fields are zero.
	Worker int
	// DequeLen is the number of runnable tasks on the owning deque.
	DequeLen int
	// DequeSuspended is the owning deque's suspension counter (Table 1).
	DequeSuspended int
	// DequeResumed is the number of the owning deque's tasks that were
	// woken but not yet drained from its owner's resume inbox.
	DequeResumed int
}

func (w StallWait) String() string {
	return fmt.Sprintf("%s [%s] on worker %d (age %v, deque: %d runnable, %d suspended, %d resumed-pending)",
		w.Site, w.Kind, w.Worker, w.Age.Round(time.Millisecond), w.DequeLen, w.DequeSuspended, w.DequeResumed)
}

// StallError is the structured deadlock / lost-wakeup diagnostic the
// watchdog produces instead of letting the runtime hang: which tasks
// were suspended, where, for how long, and on whose deques. It unwraps
// to ErrStalled.
type StallError struct {
	// NoProgress is the observed no-progress interval.
	NoProgress time.Duration
	// Live is the number of live (incomplete) tasks at stall time.
	Live int64
	// Waits lists outstanding suspensions, oldest first, capped at
	// maxStallWaits entries.
	Waits []StallWait
	// Truncated is the number of suspensions omitted from Waits.
	Truncated int
	// ParkedWorkers is how many workers were parked (blocked in the idle
	// handshake) when the stall was declared. QueuedDeques and
	// PendingResumed count the deques holding runnable items and the
	// resumed tasks waiting for their owner to inject them: a parked
	// worker beside either is itself the diagnosis — a lost worker wake.
	ParkedWorkers  int
	QueuedDeques   int
	PendingResumed int
}

// maxStallWaits bounds the diagnostic for runs with huge suspension
// counts; Truncated reports what was dropped.
const maxStallWaits = 32

func (e *StallError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v: no progress for %v, %d live task(s), %d suspension(s) outstanding; %d worker(s) parked, %d deque(s) with queued work, %d resumed task(s) awaiting injection",
		ErrStalled, e.NoProgress.Round(time.Millisecond), e.Live, len(e.Waits)+e.Truncated,
		e.ParkedWorkers, e.QueuedDeques, e.PendingResumed)
	for _, w := range e.Waits {
		fmt.Fprintf(&b, "\n  suspended: %s", w)
	}
	if e.Truncated > 0 {
		fmt.Fprintf(&b, "\n  ... and %d more", e.Truncated)
	}
	return b.String()
}

func (e *StallError) Unwrap() error { return ErrStalled }

// watchdog is the suspension monitor: it samples scheduler progress and
// declares a stall when, for a full StallTimeout window, live tasks
// remain but no task slice runs, no worker holds a task, and no wakeup
// (timer or fault-delayed) is pending. That conjunction separates a
// genuine lost wakeup or deadlock from the benign quiet of a long
// Latency: an armed timer counts as pending progress.
//
// On detection the watchdog cancels the root scope with a *StallError,
// which aborts every registered wait — so the diagnosis itself unblocks
// the run and Run returns the typed error instead of hanging. It runs
// on its own goroutine, off the worker hot paths, and exits when the
// run completes or after firing once.
func (rt *runtimeState) watchdog(stop <-chan struct{}) {
	interval := rt.cfg.StallTimeout / 8
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	lastRun := int64(-1)
	var quiet time.Duration
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		run := rt.tasksRunTotal()
		progressed := run != lastRun ||
			rt.runningTotal() > 0 ||
			rt.pendingWakes.Load() > 0 ||
			rt.finished()
		lastRun = run
		if progressed {
			quiet = 0
			continue
		}
		quiet += interval
		if quiet < rt.cfg.StallTimeout {
			continue
		}
		rt.stalled.Store(true)
		rt.root.cancel(rt.stallError(quiet))
		return
	}
}

// stallError snapshots the open waits and the workers' parking state
// into a diagnostic. It runs before the root cancel wakes anyone.
func (rt *runtimeState) stallError(quiet time.Duration) *StallError {
	e := &StallError{NoProgress: quiet, Live: rt.live()}
	for _, w := range rt.workers {
		if w.parked.Load() {
			e.ParkedWorkers++
		}
		e.QueuedDeques += w.queuedDeques()
		w.mu.Lock()
		e.PendingResumed += len(w.resumed)
		w.mu.Unlock()
	}
	// The open waits are the waiters on the scopes' wait lists. A scope's
	// lock keeps its linked waiters from being recycled, so their fields
	// are read under it; the deque snapshots come after it is released.
	now := time.Now()
	var waits []StallWait
	var homes []*rdeque
	for stack := []*cancelScope{rt.root}; len(stack) > 0; {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		s.mu.Lock()
		for k := range s.children {
			stack = append(stack, k)
		}
		for wt := s.waits; wt != nil; wt = wt.next {
			// Skip Blocking-mode waits (no home deque: their worker counts as
			// running), and waits already claimed whose task has not run yet.
			// A join wait has no home deque either, but its task is
			// suspended: it is reported, with no deque snapshot.
			if (wt.home == nil && !wt.join) || wt.t.epoch.Load() != wt.epoch {
				continue
			}
			waits = append(waits, StallWait{Site: wt.site, Kind: wt.kind, Age: now.Sub(wt.since), Worker: wt.worker})
			homes = append(homes, wt.home)
		}
		s.mu.Unlock()
	}
	for i, home := range homes {
		if home == nil {
			continue
		}
		// The counter includes woken tasks the owner has not pushed back
		// yet; those are reported as resumed, the rest as suspended.
		owner := rt.workers[waits[i].Worker]
		resumed := 0
		owner.mu.Lock()
		for _, wt := range owner.resumed {
			if wt.home == home {
				resumed++
			}
		}
		owner.mu.Unlock()
		waits[i].DequeLen = home.q.Len()
		waits[i].DequeSuspended = max(int(home.suspendCtr.Load())-resumed, 0)
		waits[i].DequeResumed = resumed
	}
	sort.Slice(waits, func(i, j int) bool { return waits[i].Age > waits[j].Age })
	if len(waits) > maxStallWaits {
		e.Truncated = len(waits) - maxStallWaits
		waits = waits[:maxStallWaits]
	}
	e.Waits = waits
	return e
}

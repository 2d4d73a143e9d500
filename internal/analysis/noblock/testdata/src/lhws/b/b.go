// Package b is the clean fixture: a hot path that polls, spawns, uses
// the lock-free deque, and justifies its one deliberate blocking call.
package b

import (
	"sync"
	"sync/atomic"
	"time"

	"lhws/internal/deque"
	"lhws/internal/faultpoint"
)

// loop is the fixture's nonblocking scheduling loop.
//
//lhws:nonblocking
func loop(d *deque.ChaseLev, done chan struct{}, n *atomic.Int64) bool {
	// Polling a channel with a default case does not park.
	select {
	case <-done:
		return true
	default:
	}
	if it, ok := d.PopBottom(); ok {
		_ = it
		n.Add(1)
	}
	// Spawning is not blocking; the goroutine body is outside this hot path.
	go func(ch chan struct{}) {
		<-ch
	}(done)
	step(n)
	backoff()
	idle(done)
	settle(done)
	return false
}

// step is a helper vetted into the hot path.
//
//lhws:nonblocking
func step(n *atomic.Int64) { n.Add(1) }

// backoff escalates to a short sleep, which is deliberate: it yields
// the processor so timer goroutines run even on a single P.
//
//lhws:nonblocking
func backoff() {
	time.Sleep(time.Microsecond) //lhws:allowblock deliberate escalating backoff between failed steals
}

// idle is the fixture's sanctioned park: declared with its condition, it
// may be called from the nonblocking loop, its body is not checked, and
// neither it nor a plain helper that calls it taints a caller's summary.
//
//lhws:parks blocks only after announcing and finding nothing to run
func idle(sem chan struct{}) {
	time.Sleep(time.Microsecond)
	<-sem
}

// settle reaches a park only through idle, so the loop may call it.
func settle(sem chan struct{}) { idle(sem) }

// failSteal consults the fault injector with its non-blocking Decide
// hook, which is permitted on hot paths (unlike Inject).
//
//lhws:nonblocking
func failSteal(inj *faultpoint.Injector) bool {
	if inj == nil {
		return false
	}
	act, _ := inj.Decide(faultpoint.Steal)
	return act == faultpoint.Fail
}

// watchdog is a monitor goroutine, not a worker hot path: unannotated,
// it may park on its ticker and call the injector's blocking hook.
func watchdog(inj *faultpoint.Injector, stop chan struct{}) {
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	select {
	case <-stop:
	case <-tick.C:
		inj.Inject(faultpoint.ResumeInject)
	}
}

// drain is a blocking-mode function; it is not annotated and therefore
// free to block.
func drain(mu *sync.Mutex, ch chan int) int {
	mu.Lock()
	defer mu.Unlock()
	return <-ch
}

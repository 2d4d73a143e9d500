// Package a exercises the positive cases of the noblock analyzer.
package a

import (
	"sync"
	"time"

	"lhws/blocky"
	"lhws/internal/deque"
	"lhws/internal/faultpoint"
)

// hot is a checked scheduling hot path.
//
//lhws:nonblocking
func hot(mu *sync.Mutex, wg *sync.WaitGroup, ch chan int) {
	mu.Lock()                    // want `may park on lock contention`
	time.Sleep(time.Millisecond) // want `sleeps the worker`
	wg.Wait()                    // want `parks until the group drains`
	ch <- 1                      // want `channel send blocks`
	<-ch                         // want `channel receive blocks`
	select {                     // want `select without default`
	case <-ch:
	}
	for range ch { // want `range over channel`
	}
	helper()  // provably non-blocking: the summary-based rule clears it unannotated
	sleeper() // want `call may block the worker: a\.sleeper → a\.nap → time\.Sleep`
	waits(ch) // want `call may block the worker: a\.waits`
	vetted(ch)
	var f func()
	f() // want `function value`
}

// crossPkg shows the old same-package-only rule's false negative is
// gone: a blocking helper one package away is caught with its chain.
//
//lhws:nonblocking
func crossPkg(ch chan int) {
	blocky.Park(ch) // want `call may block the worker: blocky\.Park`
}

// lockedDeque shows the mutex-backed deque is banned from hot paths.
//
//lhws:nonblocking
func lockedDeque(d *deque.Locked) {
	d.PushBottom(nil)     // want `mutex-backed deque`
	d.PopTopBatch(nil, 0) // want `mutex-backed deque`
}

// chaosHot shows the fault injector's task-side hook is banned from hot
// paths: Inject sleeps or panics by design.
//
//lhws:nonblocking
func chaosHot(inj *faultpoint.Injector) {
	inj.Inject(faultpoint.Suspend) // want `sleeps or panics by design`
}

// undeclaredPark shows a //lhws:parks that does not state its condition
// is itself reported and buys nothing: the call is flagged as before.
//
//lhws:nonblocking
func undeclaredPark(ch chan int) {
	barePark(ch) // want `call may block the worker: a\.barePark`
}

//lhws:parks // want `parks directive needs the condition`
func barePark(ch chan int) { <-ch }

// helper is provably non-blocking; no annotation needed.
func helper() {}

// sleeper reaches time.Sleep two hops down; the summary carries the
// witness chain to the flagged call site.
func sleeper() { nap() }

func nap() { time.Sleep(time.Millisecond) }

// waits parks on a bare channel receive; the syntactic scan marks it.
func waits(ch chan int) { <-ch }

// vetted blocks, but the operation is justified where it happens, so
// the escape also stops the summary from tainting callers.
func vetted(ch chan int) {
	<-ch //lhws:allowblock drained by the test harness before workers start
}

// cold is unannotated: nothing inside it is checked.
func cold(mu *sync.Mutex) {
	mu.Lock()
	time.Sleep(time.Millisecond)
	mu.Unlock()
}

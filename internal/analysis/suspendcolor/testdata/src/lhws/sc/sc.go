// Package sc exercises the suspendcolor analyzer: no-suspend regions of
// every kind, direct and transitive may-suspend calls, the directive
// escape, and the three-hop cross-package chain.
package sc

import (
	"lhws/chain/c1"
	"lhws/internal/runtime"
	"lhws/internal/timerwheel"
)

// wake is a delivery path: it runs on arbitrary goroutines with no task
// to suspend.
//
//lhws:nosuspend
func wake(f *runtime.Future, c *runtime.Ctx) {
	f.Await(c) // want `call may suspend the task inside a //lhws:nosuspend region: \(\*runtime\.Future\)\.Await`
}

// ownerPath suspending would release the owner role mid-function.
//
//lhws:owner holds the active deque
func ownerPath(c *runtime.Ctx) {
	helper(c) // want `call may suspend the task inside an //lhws:owner region .*: sc\.helper → \(\*runtime\.Ctx\)\.Latency`
}

// helper suspends one hop down; callers inherit the color.
func helper(c *runtime.Ctx) { c.Latency(0) }

// chained reaches the leaf three packages away; the witness names every
// hop.
//
//lhws:nosuspend
func chained(c *runtime.Ctx) {
	c1.Top(c) // want `call may suspend the task inside a //lhws:nosuspend region: c1\.Top → c2\.Mid → c3\.Deep → \(\*runtime\.Ctx\)\.Latency`
}

// okPath shows what does NOT color a region: spawned bodies, escaping
// literals, and plain computation.
//
//lhws:nosuspend
func okPath(c *runtime.Ctx, xs []int) int {
	sum := 0
	for _, x := range xs {
		sum += x
	}
	go helper(c) // the spawned body is outside this region
	f := func() { helper(c) }
	_ = f // the literal escapes; it runs elsewhere, on its own terms
	return sum
}

// invoked literals DO belong to the region.
//
//lhws:nosuspend
func inlineLit(c *runtime.Ctx) {
	func() {
		helper(c) // want `call may suspend the task inside a //lhws:nosuspend region`
	}()
}

// escaped acknowledges a deliberate exception.
//
//lhws:nosuspend
func escaped(c *runtime.Ctx) {
	helper(c) //lhws:allowsuspend fixture: the caller joins before the region returns
}

// targetScope shows WithTarget is suspension-free: stamping a latency
// target (and canceling the scope) never leaves the worker, so both are
// legal inside a no-suspend region — but suspending THROUGH the derived
// ctx colors the region like any other suspension.
//
//lhws:nosuspend
func targetScope(c *runtime.Ctx) {
	tc, cancel := c.WithTarget(0) // stamping a target does not suspend
	cancel()                      // nor does canceling the scope
	tc.Latency(0)                 // want `call may suspend the task inside a //lhws:nosuspend region: \(\*runtime\.Ctx\)\.Latency`
}

// extOp implements runtime.ExternalOp; Arm and CancelExternal run on
// completion/cancellation goroutines.
type extOp struct{}

func (o extOp) Arm(h runtime.ExternalHandle) {
	helper(nil) // want `call may suspend the task inside an ExternalOp callback`
}

func (o extOp) CancelExternal(h runtime.ExternalHandle, cause error) {}

// fired is registered as a timer-wheel callback below; it runs on the
// wheel goroutine.
func fired(arg any) {
	helper(nil) // want `call may suspend the task inside a timer-wheel callback`
}

// firedT is the Timer-carrying variant registered via AfterFuncT.
func firedT(t *timerwheel.Timer, arg any) {
	helper(nil) // want `call may suspend the task inside a timer-wheel callback`
}

// firedInto is registered via AfterFuncInto, whose callback is not its
// second argument.
func firedInto(arg any) {
	helper(nil) // want `call may suspend the task inside a timer-wheel callback`
}

// quietInto is a wheel callback that does not suspend: not reported.
func quietInto(arg any) {}

// suspender is passed to AfterFuncInto as the callback's argument, not
// as the callback: it never runs on the wheel goroutine, so its
// suspension is not reported.
func suspender(c *runtime.Ctx) { c.Latency(0) }

func arm(w *timerwheel.Wheel) *timerwheel.Timer {
	var tm, tq timerwheel.Timer
	w.AfterFuncInto(&tm, 0, firedInto, nil)
	w.AfterFuncInto(&tq, 0, quietInto, suspender)
	w.AfterFuncT(0, firedT, nil)
	return w.AfterFunc(0, fired, nil)
}

var _ = extOp{}

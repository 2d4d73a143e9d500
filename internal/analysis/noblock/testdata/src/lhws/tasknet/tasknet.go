// Package tasknet exercises the bare-net-call-in-task-code rule: any
// function or closure taking a *runtime.Ctx is task code, and direct
// net reads/writes/accepts/dials inside it park the worker.
package tasknet

import (
	"net"
	"syscall"

	"lhws/internal/runtime"
)

func task(c *runtime.Ctx, cn net.Conn, l net.Listener) {
	buf := make([]byte, 8)
	cn.Read(buf)             // want `blocks the worker under this task`
	cn.Write(buf)            // want `blocks the worker under this task`
	l.Accept()               // want `blocks the worker under this task`
	net.Dial("tcp", "x:1")   // want `blocks the worker under this task`
	net.LookupHost("x.test") // want `blocks the worker under this task`
}

// closures with a Ctx parameter are task code too — the common spawn
// shape.
func spawnShape(c *runtime.Ctx, cn net.Conn) {
	f := func(cc *runtime.Ctx) {
		cn.Read(nil) // want `blocks the worker under this task`
	}
	_ = f
}

// bind shows the sanctioned escape hatch for genuinely immediate calls.
func bind(c *runtime.Ctx) {
	net.Listen("tcp", "127.0.0.1:0") //lhws:allowblock bind+listen complete immediately
}

// helper has no Ctx parameter: its execution context is unknown, so it
// is not checked (callers vouch for it).
func helper(cn net.Conn) {
	cn.Read(nil)
}

// typedConn shows the rule sees concrete net types, not just the
// interfaces.
func typedConn(c *runtime.Ctx, tc *net.TCPConn) {
	tc.Write(nil) // want `blocks the worker under this task`
}

// rawConn: syscall.RawConn.Read and Write wait in the netpoller whenever
// the callback returns false, which the analyzer does not evaluate, so
// both are flagged whatever the callback does. Control runs its callback
// once and never waits. A callback that cannot return false is vouched
// for where it is passed.
func rawConn(c *runtime.Ctx, rc syscall.RawConn) {
	rc.Read(func(uintptr) bool { return false }) // want `blocks the worker under this task`
	rc.Write(func(uintptr) bool { return true }) // want `blocks the worker under this task`
	rc.Control(func(uintptr) {})
	rc.Write(func(uintptr) bool { return true }) //lhws:allowblock callback returns true unconditionally
}

// viaRaw has no Ctx; its caller is flagged through the summary.
func viaRaw(rc syscall.RawConn) {
	rc.Write(func(uintptr) bool { return false })
}

func callsViaRaw(c *runtime.Ctx, rc syscall.RawConn) {
	viaRaw(rc) // want `call reaches a blocking net call under this task: tasknet\.viaRaw`
}

// Package c exercises the buffer-refcount guard from outside the
// declaring package: the refcount field is unexported, so the compiler
// already forbids raw access here — what this fixture pins down is
// that the lifecycle CALLS are allowed anywhere, including hot paths
// and freshly spawned goroutines (unlike the deque's owner-only
// methods, refcounting is deliberately free-threaded).
package c

import "lhws/internal/bufpool"

// hotPath mirrors waiter-side code handing a pooled buffer to another
// goroutine: no directive needed, no diagnostics expected.
func hotPath(pb *bufpool.Buf) {
	pb.Retain()
	go func() {
		_ = pb.Bytes()
		pb.Release()
	}()
}

// Package bufpool is the I/O data plane's buffer allocator: a
// size-classed pool of reference-counted byte buffers, built so the hot
// read/write paths of lhws/internal/io run without per-operation
// allocation and hand buffers between parties — waiter, task, a
// connection's unread stash — by moving a pointer instead of copying
// bytes.
//
// Ownership is reference counting, not scoping: Get returns a buffer
// holding one reference owned by the caller; Retain adds a reference
// for every additional holder; Release drops one and recycles the
// buffer into its class pool when the count reaches zero. The zero-copy
// handoffs in the I/O layer (readiness → task, canceled read → stash →
// successor read) are reference transfers: the sender simply stops
// calling Release and the receiver takes over the obligation, so a
// buffer crossing the cancel window is never duplicated and never
// double-freed — see DESIGN.md §13 for the ownership rules across that
// window.
//
// Everything here is lock-free (per-class sync.Pool plus one atomic
// refcount per buffer), so pool calls never block and are safe from
// scheduler hot paths and backend goroutines alike. The refcount word
// itself is protocol state: only Get, Retain and Release touch it.
package bufpool

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// classSizes are the buffer capacities the pool hands out, spanning the
// I/O layer's real demand: tiny framed requests (512B), page-ish reads
// (4KiB), bulk transfers (64KiB), and huge request bodies (1MiB).
// Requests above the largest class fall through to a plain allocation
// that the GC owns (class < 0): rare by construction, and Release
// simply drops them.
var classSizes = [...]int{512, 4 << 10, 64 << 10, 1 << 20}

// NumClasses is the number of pooled size classes.
const NumClasses = len(classSizes)

// MaxPooled is the largest request the pool serves from a class;
// anything bigger is GC-owned.
const MaxPooled = 1 << 20

// pools holds one sync.Pool per class. Each pooled value is a *Buf
// whose backing array was allocated once and travels with it across
// lives, so a steady-state Get/Release cycle allocates nothing.
var pools [NumClasses]sync.Pool

// stats counts pool traffic for tests and the throughput benchmark's
// recycling gate. Sharded padding is overkill here — these are not on
// the per-byte path, only per-buffer.
var stats struct {
	gets     atomic.Uint64 // Get calls served (any class)
	news     atomic.Uint64 // Get calls that had to allocate a fresh buffer
	puts     atomic.Uint64 // buffers recycled into a class pool
	oversize atomic.Uint64 // Get calls above MaxPooled (GC-owned)
}

// Buf is one pooled buffer: a payload slice (len = bytes in use, cap =
// the class size) plus the reference count that decides when the
// backing array returns to its pool.
type Buf struct {
	b     []byte
	class int32        // index into classSizes; -1 means GC-owned oversize
	refs  atomic.Int32 // holders; 0 only while resting in the pool
}

// classFor returns the smallest class index whose size fits n, or -1
// when n exceeds every class.
func classFor(n int) int {
	for i, sz := range classSizes {
		if n <= sz {
			return i
		}
	}
	return -1
}

// Get returns a buffer with len n and one reference owned by the
// caller. The backing capacity is the containing size class, so a
// caller that reads short can SetLen down without losing the room to
// grow back.
//
// Get runs on worker hot paths and waiter goroutines alike, so it must
// stay non-parking: atomics, sync.Pool fast paths, and at worst an
// allocation.
func Get(n int) *Buf {
	stats.gets.Add(1)
	ci := classFor(n)
	if ci < 0 {
		stats.oversize.Add(1)
		pb := &Buf{b: make([]byte, n), class: -1}
		pb.refs.Store(1)
		return pb
	}
	if v := pools[ci].Get(); v != nil {
		pb := v.(*Buf)
		pb.b = pb.b[:n]
		pb.refs.Store(1)
		return pb
	}
	stats.news.Add(1)
	pb := &Buf{b: make([]byte, n, classSizes[ci]), class: int32(ci)}
	pb.refs.Store(1)
	return pb
}

// Bytes returns the payload. The slice is valid until the last
// reference is released; holders must not use it after their Release.
func (pb *Buf) Bytes() []byte { return pb.b }

// Len returns the payload length.
func (pb *Buf) Len() int { return len(pb.b) }

// Cap returns the backing capacity (the class size).
func (pb *Buf) Cap() int { return cap(pb.b) }

// SetLen reslices the payload to n bytes within the backing capacity —
// how a reader records that only n of the requested bytes arrived.
func (pb *Buf) SetLen(n int) {
	if n < 0 || n > cap(pb.b) {
		panic(fmt.Sprintf("bufpool: SetLen(%d) outside capacity %d", n, cap(pb.b)))
	}
	pb.b = pb.b[:n]
}

// Retain adds a reference for a new holder. Calling it on a released
// buffer is a use-after-free and panics.
func (pb *Buf) Retain() {
	if pb.refs.Add(1) <= 1 {
		panic("bufpool: Retain of a released buffer")
	}
}

// Release drops the caller's reference; the last release recycles the
// buffer into its class pool (oversize buffers fall to the GC). It
// reports whether this call was the final one. Releasing below zero —
// a double free — panics rather than corrupting a recycled buffer's
// next life.
func (pb *Buf) Release() bool {
	refs := pb.refs.Add(-1)
	if refs > 0 {
		return false
	}
	if refs < 0 {
		panic("bufpool: Release of a released buffer (double free)")
	}
	if pb.class >= 0 {
		stats.puts.Add(1)
		pb.b = pb.b[:cap(pb.b)]
		pools[pb.class].Put(pb)
	}
	return true
}

// Stats reports cumulative pool traffic: Get calls, fresh allocations
// among them, and buffers recycled. gets-news is the number of Gets
// served by recycling; tests and the throughput benchmark gate on it.
func Stats() (gets, news, puts uint64) {
	return stats.gets.Load(), stats.news.Load(), stats.puts.Load()
}

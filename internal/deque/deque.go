// Package deque implements work-stealing double-ended queues.
//
// A work-stealing deque has an owner end (the bottom) and a thief end (the
// top). The owner pushes and pops at the bottom in LIFO order, preserving
// the sequential depth-first execution order that makes work stealing
// cache-friendly; thieves remove from the top, taking the oldest — and in
// fork-join programs, typically largest — piece of work.
//
// Two implementations are provided:
//
//   - Chase–Lev: the classic lock-free dynamic circular-array deque
//     (Chase & Lev, SPAA 2005), with the memory-ordering fixes from
//     Lê et al. (PPoPP 2013) expressed through Go's sync/atomic. This is
//     the deque used by the real runtime in internal/runtime.
//
//   - Locked: a mutex-protected slice-backed deque, the obviously correct
//     reference implementation that the conformance and differential tests
//     check ChaseLev against. No scheduler uses it: the round-based
//     simulator in internal/sched keeps its own deque, and on the
//     runtime's hot paths its mutex would make every worker contend with
//     every thief.
//
// Both satisfy the Deque interface, and both are exercised by the same
// conformance and property-based test suites.
package deque

// Item is the element type stored in deques. The schedulers store
// scheduler-specific node pointers; using a minimal interface keeps this
// package free of dependencies on them.
type Item interface{}

// Deque is the contract shared by all work-stealing deque implementations.
//
// PushBottom and PopBottom may only be called by the owning worker.
// PopTop may be called by any worker (thieves). Empty and Len are advisory
// under concurrency: they may be stale by the time the caller acts on them.
type Deque interface {
	// PushBottom adds an item at the owner end.
	PushBottom(it Item)
	// PopBottom removes and returns the item at the owner end.
	// ok is false if the deque was observed empty.
	PopBottom() (it Item, ok bool)
	// PopTop removes and returns the item at the thief end.
	// ok is false if the deque was observed empty or the steal lost a race.
	PopTop() (it Item, ok bool)
	// PopTopBatch removes up to limit items (at most half the deque, but a
	// lone item is taken whole) from the thief end into dst, oldest first,
	// and returns the count; 0 plays the role of a failed PopTop.
	PopTopBatch(dst []Item, limit int) int
	// Empty reports whether the deque was observed empty.
	Empty() bool
	// Len returns the observed number of items.
	Len() int
}

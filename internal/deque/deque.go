// Package deque implements work-stealing double-ended queues.
//
// A work-stealing deque has an owner end (the bottom) and a thief end (the
// top). The owner pushes and pops at the bottom in LIFO order, preserving
// the sequential depth-first execution order that makes work stealing
// cache-friendly; thieves remove from the top, taking the oldest — and in
// fork-join programs, typically largest — piece of work.
//
// The one implementation is ChaseLev: the classic lock-free dynamic
// circular-array deque (Chase & Lev, SPAA 2005), with the memory-ordering
// fixes from Lê et al. (PPoPP 2013) expressed through Go's sync/atomic.
// It is the deque of the real runtime in internal/runtime; the round-based
// simulator in internal/sched keeps its own. The test files hold Locked, a
// mutex-protected slice-backed deque that is the obviously correct
// reference the conformance, property-based and differential tests check
// ChaseLev against, and the Deque interface the two share there.
package deque

// Item is the element type stored in deques. The schedulers store
// scheduler-specific node pointers; using a minimal interface keeps this
// package free of dependencies on them.
type Item interface{}

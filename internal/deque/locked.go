package deque

import "sync"

// Locked is a mutex-protected slice-backed deque. It trades throughput for
// obviousness: it is the reference implementation the conformance and
// differential tests check ChaseLev against. Every operation takes a
// mutex, so the runtime never uses it: a worker would contend with every
// thief on each push and pop.
type Locked struct {
	mu    sync.Mutex
	items []Item
}

// NewLocked returns an empty mutex-based deque.
func NewLocked() *Locked { return &Locked{} }

// PushBottom adds an item at the owner end.
func (d *Locked) PushBottom(it Item) {
	d.mu.Lock()
	d.items = append(d.items, it)
	d.mu.Unlock()
}

// PopBottom removes and returns the item at the owner end.
func (d *Locked) PopBottom() (Item, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.items)
	if n == 0 {
		return nil, false
	}
	it := d.items[n-1]
	d.items[n-1] = nil // release for GC
	d.items = d.items[:n-1]
	return it, true
}

// PopTop removes and returns the item at the thief end.
func (d *Locked) PopTop() (Item, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.items) == 0 {
		return nil, false
	}
	it := d.items[0]
	d.items[0] = nil
	d.items = d.items[1:]
	return it, true
}

// PopTopBatch removes up to max items from the thief end, at most half of
// the deque (a lone item is taken whole), oldest first — the same
// semantics as ChaseLev.PopTopBatch, arbitrated by the mutex instead of
// the claim protocol.
func (d *Locked) PopTopBatch(dst []Item, max int) int {
	if max > len(dst) {
		max = len(dst)
	}
	if max > MaxBatch {
		max = MaxBatch
	}
	if max <= 0 {
		return 0
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.items)
	if n == 0 {
		return 0
	}
	take := n / 2
	if n == 1 {
		take = 1
	}
	if take > max {
		take = max
	}
	for i := 0; i < take; i++ {
		dst[i] = d.items[i]
		d.items[i] = nil
	}
	d.items = d.items[take:]
	return take
}

// Empty reports whether the deque is empty.
func (d *Locked) Empty() bool { return d.Len() == 0 }

// Len returns the number of items.
func (d *Locked) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.items)
}

var _ Deque = (*Locked)(nil)

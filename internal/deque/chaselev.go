package deque

import "sync/atomic"

// ChaseLev is a lock-free work-stealing deque backed by a growable circular
// array, after Chase & Lev (SPAA 2005). The owner operates on bottom; any
// number of thieves race on top with a compare-and-swap. The array grows
// geometrically and is replaced atomically; stale readers may read from an
// old array, which is safe because entries are immutable between publication
// (PushBottom's store) and consumption (the CAS on top).
//
// Thieves may also take up to half the items with PopTopBatch, a run of
// classic PopTops: every item still leaves through one CAS on top, so the
// owner's PopBottom is the textbook wait-free pop.
//
// The zero value is not usable; construct with NewChaseLev.
type ChaseLev struct {
	top    atomic.Int64
	bottom atomic.Int64
	array  atomic.Pointer[clArray]
}

// MaxBatch caps the items one PopTopBatch transfers, whatever limit it is
// passed, so a dst of MaxBatch items always has room for a whole batch.
const MaxBatch = 64

// clArray is a fixed-capacity circular buffer. size is always a power of
// two so index wrapping is a mask.
type clArray struct {
	size  int64
	mask  int64
	items []atomic.Value // holds Item
}

func newCLArray(size int64) *clArray {
	return &clArray{size: size, mask: size - 1, items: make([]atomic.Value, size)}
}

func (a *clArray) get(i int64) Item     { return a.items[i&a.mask].Load() }
func (a *clArray) put(i int64, it Item) { a.items[i&a.mask].Store(it) }

// grow returns a new array of twice the size holding elements [top, bottom).
func (a *clArray) grow(top, bottom int64) *clArray {
	na := newCLArray(a.size * 2)
	for i := top; i < bottom; i++ {
		na.put(i, a.get(i))
	}
	return na
}

// minCapacity is the initial circular-array capacity; small because
// schedulers allocate many deques (up to U+1 per worker).
const minCapacity = 8

// NewChaseLev returns an empty lock-free deque.
func NewChaseLev() *ChaseLev {
	d := &ChaseLev{}
	d.array.Store(newCLArray(minCapacity))
	return d
}

// PushBottom adds an item at the owner end. Only the owner may call it.
func (d *ChaseLev) PushBottom(it Item) {
	b := d.bottom.Load()
	t := d.top.Load()
	a := d.array.Load()
	if b-t >= a.size {
		a = a.grow(t, b)
		d.array.Store(a)
	}
	a.put(b, it)
	// Publish the item before publishing the new bottom. atomic.Store has
	// release semantics under the Go memory model, so thieves that observe
	// the new bottom also observe the item.
	d.bottom.Store(b + 1)
}

// PopBottom removes and returns the item at the owner end. Only the owner
// may call it. On the last-element race with a thief, the CAS on top
// arbitrates.
func (d *ChaseLev) PopBottom() (Item, bool) {
	b := d.bottom.Load() - 1
	a := d.array.Load()
	d.bottom.Store(b)
	t := d.top.Load()
	if b < t {
		// Deque was empty; restore bottom.
		d.bottom.Store(t)
		return nil, false
	}
	it := a.get(b)
	if b > t {
		// More than one element; no race possible on this one.
		return it, true
	}
	// Exactly one element: race thieves via CAS on top.
	won := d.top.CompareAndSwap(t, t+1)
	d.bottom.Store(t + 1)
	if !won {
		return nil, false
	}
	return it, true
}

// PeekBottom returns the item at the owner end without removing it. Only
// the owner may call it. It writes nothing, so unlike a PopBottom/PushBottom
// pair it does not take the deque's cache line from polling thieves. The
// item may be stolen at any moment after the call: the caller may compare
// its identity but must not dereference it without popping it first.
func (d *ChaseLev) PeekBottom() (Item, bool) {
	b := d.bottom.Load()
	if b <= d.top.Load() {
		return nil, false
	}
	return d.array.Load().get(b - 1), true
}

// PopTopBatch removes up to limit items from the thief end into dst: at
// most half the observed items (floor(n/2), but a lone item is taken
// whole, matching PopTop), and at most len(dst) and MaxBatch. It pops
// them one PopTop at a time and stops at the first failed PopTop, so
// each item is won by its own CAS on top and the owner never waits. A
// batch is not atomic against other thieves, which may take items
// between two of its pops; it still lands in dst in increasing deque
// order, oldest (topmost) first. Returns the number transferred; 0 plays
// the role of a failed PopTop.
func (d *ChaseLev) PopTopBatch(dst []Item, limit int) int {
	take := min(limit, len(dst), MaxBatch, max(1, d.Len()/2))
	n := 0
	for n < take {
		it, ok := d.PopTop()
		if !ok {
			break
		}
		dst[n] = it
		n++
	}
	return n
}

// PopTop removes and returns the item at the thief end. Any worker may call
// it. A lost race returns ok=false even if the deque is non-empty ("failed
// steal"); callers are expected to retry elsewhere, which is exactly the
// behaviour work-stealing analyses assume.
func (d *ChaseLev) PopTop() (Item, bool) {
	t := d.top.Load()
	b := d.bottom.Load()
	if t >= b {
		return nil, false
	}
	a := d.array.Load()
	it := a.get(t)
	if !d.top.CompareAndSwap(t, t+1) {
		return nil, false
	}
	return it, true
}

// Empty reports whether the deque was observed empty.
func (d *ChaseLev) Empty() bool { return d.Len() <= 0 }

// Len returns the observed number of items. The value may be stale and,
// transiently during a concurrent PopBottom, negative is clamped to zero.
func (d *ChaseLev) Len() int {
	n := d.bottom.Load() - d.top.Load()
	if n < 0 {
		return 0
	}
	return int(n)
}

var _ Deque = (*ChaseLev)(nil)

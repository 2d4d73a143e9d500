package deque

import (
	goruntime "runtime"
	"sync/atomic"
)

// ChaseLev is a lock-free work-stealing deque backed by a growable circular
// array, after Chase & Lev (SPAA 2005). The owner operates on bottom; any
// number of thieves race on top with a compare-and-swap. The array grows
// geometrically and is replaced atomically; stale readers may read from an
// old array, which is safe because entries are immutable between publication
// (PushBottom's store) and consumption (the CAS on top).
//
// Beyond the classic single-item PopTop, thieves may take a batch of up to
// half the items with PopTopBatch, paying one committing CAS on top for
// the whole transfer (the steal-half amortization of Rito & Paulino,
// arXiv:1810.10615). Batch steals are coordinated with the owner's
// PopBottom fast path through the claim word; see PopTopBatch for the
// protocol and its correctness argument.
//
// The zero value is not usable; construct with NewChaseLev.
type ChaseLev struct {
	top    atomic.Int64
	bottom atomic.Int64
	// claim is the in-flight batch-steal advertisement: zero when no batch
	// steal is running, otherwise the packed half-open index range
	// (start<<claimShift | length) a thief is about to commit. At most one
	// batch steal is in flight per deque (thieves serialize on the CAS from
	// zero); the owner consults it before a fast-path (CAS-free) PopBottom
	// so owner and batch thief can never both take the same item.
	claim atomic.Int64
	array atomic.Pointer[clArray]
}

const (
	// claimShift packs the claimed range as start<<claimShift|len.
	claimShift = 8
	// MaxBatch is the largest item count one PopTopBatch can transfer,
	// bounded so the claimed length always fits in claimShift bits.
	MaxBatch = 64
)

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
//
// The claim check makes the CAS-free fast path (more than one element
// left) safe against an in-flight batch steal: if the pending batch
// covers our index, the owner waits out the thief's short claim window —
// a bounded copy loop plus one CAS — and re-decides against the top the
// commit or abort leaves behind. Reading claim BEFORE top is load-bearing:
// a thief clears its claim only after the committing CAS on top, so an
// owner that reads claim == 0 either ran before the claim existed (and
// then the thief's post-claim re-read of bottom excludes our item from
// the batch) or after the commit (and then the top read below already
// reflects the stolen range).
func (d *ChaseLev) PopBottom() (Item, bool) {
	b := d.bottom.Load() - 1
	a := d.array.Load()
	d.bottom.Store(b)
	for {
		if cl := d.claim.Load(); cl != 0 {
			s, k := cl>>claimShift, cl&(1<<claimShift-1)
			if b >= s && b < s+k {
				// A batch thief is mid-claim over our item; wait for its
				// commit or abort rather than double-taking.
				goruntime.Gosched()
				continue
			}
		}
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

// PopTopBatch removes up to max items from the thief end into dst with a
// single committing CAS on top, amortizing synchronization over the whole
// transfer. At most half the observed items are taken (floor(n/2), but a
// lone item is taken whole, matching PopTop); the victim keeps the bottom
// half. Items land in dst in deque order, oldest (topmost) first. Returns
// the number transferred; 0 means empty, a lost race, or another batch
// steal in flight (the caller retries elsewhere, like a failed PopTop).
//
// Protocol: the classic Chase–Lev CAS on top can hand a thief only the
// single index top, because the owner's PopBottom takes any index above
// top WITHOUT synchronization — a multi-index claim would race those
// CAS-free takes. So a batch thief first advertises its intended range in
// the claim word (one CAS from zero, which also serializes batch thieves
// per deque), re-reads bottom so the range excludes every item an
// unaware owner pop may already have taken, copies the items out, and
// only then commits with the CAS on top. Owners that pop inside the
// advertised range while the claim is live wait it out (see PopBottom);
// owner pops that never saw the claim are excluded by the post-claim
// bottom re-read, because their bottom store precedes their claim read.
// Cells in the committed range cannot have been recycled meanwhile: the
// owner reuses a cell only after bottom climbs past it again, which
// requires a push writing that cell, and pops below the re-read bottom
// wait on the claim.
func (d *ChaseLev) PopTopBatch(dst []Item, max int) int {
	if max > len(dst) {
		max = len(dst)
	}
	if max > MaxBatch {
		max = MaxBatch
	}
	if max <= 0 {
		return 0
	}
	t := d.top.Load()
	b := d.bottom.Load()
	n := b - t
	if n <= 0 {
		return 0
	}
	take := n / 2
	if take > int64(max) {
		take = int64(max)
	}
	if n == 1 || take <= 1 || max == 1 {
		// Single-item transfer: the plain CAS on top is claim-free safe.
		it, ok := d.PopTop()
		if !ok {
			return 0
		}
		dst[0] = it
		return 1
	}
	if !d.claim.CompareAndSwap(0, t<<claimShift|take) {
		// Another batch steal is mid-claim on this deque; take one item
		// instead of spinning on the claim word.
		it, ok := d.PopTop()
		if !ok {
			return 0
		}
		dst[0] = it
		return 1
	}
	// Re-validate bottom now that the claim is visible: any owner pop that
	// did not (and will not) see the claim stored its bottom before our
	// claim CAS, so shrinking to half of the re-read length keeps the
	// committed range strictly below every such pop.
	if b2 := d.bottom.Load(); b2-t < n {
		n = b2 - t
		if take = n / 2; take > int64(max) {
			take = int64(max)
		}
		if n == 1 {
			take = 1
		}
	}
	if take < 1 {
		d.claim.Store(0)
		return 0
	}
	a := d.array.Load()
	for i := int64(0); i < take; i++ {
		dst[i] = a.get(t + i)
	}
	if !d.top.CompareAndSwap(t, t+take) {
		// Lost to a single thief or the owner's last-item CAS.
		d.claim.Store(0)
		return 0
	}
	d.claim.Store(0)
	return int(take)
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

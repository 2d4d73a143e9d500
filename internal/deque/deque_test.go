package deque

import (
	"sync"
	"testing"
	"testing/quick"
)

// implementations returns fresh instances of every Deque implementation for
// conformance testing.
func implementations() map[string]func() Deque {
	return map[string]func() Deque{
		"ChaseLev": func() Deque { return NewChaseLev() },
		"Locked":   func() Deque { return NewLocked() },
	}
}

func TestEmptyBehaviour(t *testing.T) {
	for name, mk := range implementations() {
		t.Run(name, func(t *testing.T) {
			d := mk()
			if !d.Empty() {
				t.Error("new deque not empty")
			}
			if d.Len() != 0 {
				t.Errorf("Len() = %d, want 0", d.Len())
			}
			if _, ok := d.PopBottom(); ok {
				t.Error("PopBottom on empty returned ok")
			}
			if _, ok := d.PopTop(); ok {
				t.Error("PopTop on empty returned ok")
			}
		})
	}
}

func TestLIFOAtBottom(t *testing.T) {
	for name, mk := range implementations() {
		t.Run(name, func(t *testing.T) {
			d := mk()
			for i := 0; i < 100; i++ {
				d.PushBottom(i)
			}
			for i := 99; i >= 0; i-- {
				it, ok := d.PopBottom()
				if !ok || it.(int) != i {
					t.Fatalf("PopBottom = %v,%v; want %d,true", it, ok, i)
				}
			}
		})
	}
}

// TestPeekBottom: the owner's peek sees exactly what its next PopBottom
// would return, removes nothing, and reports empty once thieves have taken
// everything.
func TestPeekBottom(t *testing.T) {
	d := NewChaseLev()
	if it, ok := d.PeekBottom(); ok {
		t.Fatalf("PeekBottom on an empty deque = %v,true", it)
	}
	for i := 0; i < 3; i++ {
		d.PushBottom(i)
		if it, ok := d.PeekBottom(); !ok || it.(int) != i {
			t.Fatalf("PeekBottom after pushing %d = %v,%v", i, it, ok)
		}
	}
	if n := d.Len(); n != 3 {
		t.Fatalf("Len = %d after three peeks, want 3 (peek must not remove)", n)
	}
	if it, ok := d.PopBottom(); !ok || it.(int) != 2 {
		t.Fatalf("PopBottom = %v,%v; want 2,true", it, ok)
	}
	if it, ok := d.PeekBottom(); !ok || it.(int) != 1 {
		t.Fatalf("PeekBottom after a pop = %v,%v; want 1,true", it, ok)
	}
	for i := 0; i < 2; i++ {
		if _, ok := d.PopTop(); !ok {
			t.Fatalf("PopTop %d failed", i)
		}
	}
	if it, ok := d.PeekBottom(); ok {
		t.Fatalf("PeekBottom after thieves emptied the deque = %v,true", it)
	}
}

func TestFIFOAtTop(t *testing.T) {
	for name, mk := range implementations() {
		t.Run(name, func(t *testing.T) {
			d := mk()
			for i := 0; i < 100; i++ {
				d.PushBottom(i)
			}
			for i := 0; i < 100; i++ {
				it, ok := d.PopTop()
				if !ok || it.(int) != i {
					t.Fatalf("PopTop = %v,%v; want %d,true", it, ok, i)
				}
			}
		})
	}
}

func TestMixedEnds(t *testing.T) {
	for name, mk := range implementations() {
		t.Run(name, func(t *testing.T) {
			d := mk()
			d.PushBottom(1)
			d.PushBottom(2)
			d.PushBottom(3)
			if it, _ := d.PopTop(); it.(int) != 1 {
				t.Fatalf("PopTop = %v, want 1", it)
			}
			if it, _ := d.PopBottom(); it.(int) != 3 {
				t.Fatalf("PopBottom = %v, want 3", it)
			}
			if it, _ := d.PopTop(); it.(int) != 2 {
				t.Fatalf("PopTop = %v, want 2", it)
			}
			if !d.Empty() {
				t.Fatal("deque should be empty")
			}
		})
	}
}

func TestGrowthBeyondInitialCapacity(t *testing.T) {
	for name, mk := range implementations() {
		t.Run(name, func(t *testing.T) {
			d := mk()
			const n = 10 * minCapacity
			for i := 0; i < n; i++ {
				d.PushBottom(i)
			}
			if d.Len() != n {
				t.Fatalf("Len = %d, want %d", d.Len(), n)
			}
			for i := 0; i < n; i++ {
				it, ok := d.PopTop()
				if !ok || it.(int) != i {
					t.Fatalf("PopTop = %v,%v; want %d,true", it, ok, i)
				}
			}
		})
	}
}

func TestInterleavedPushPop(t *testing.T) {
	for name, mk := range implementations() {
		t.Run(name, func(t *testing.T) {
			d := mk()
			// Repeatedly push two, pop one from bottom — exercises wrapping
			// of the circular array.
			next := 0
			for i := 0; i < 1000; i++ {
				d.PushBottom(next)
				next++
				d.PushBottom(next)
				next++
				if _, ok := d.PopBottom(); !ok {
					t.Fatal("unexpected empty")
				}
			}
			if d.Len() != 1000 {
				t.Fatalf("Len = %d, want 1000", d.Len())
			}
		})
	}
}

// TestPopTopBatchSemantics locks in the batch-transfer contract shared by
// both implementations: at most half the items move (a lone item moves
// whole), oldest first, capped by limit, len(dst) and MaxBatch, with the
// victim keeping the bottom half in order.
func TestPopTopBatchSemantics(t *testing.T) {
	for name, mk := range implementations() {
		t.Run(name, func(t *testing.T) {
			for _, tc := range []struct {
				n, limit, dst, want int
			}{
				{0, 8, 16, 0},             // empty
				{1, 8, 16, 1},             // lone item moves whole
				{2, 8, 16, 1},             // half of two
				{3, 8, 16, 1},             // floor(n/2)
				{8, 8, 16, 4},             // half
				{9, 8, 16, 4},             // floor(9/2) = 4
				{32, 8, 16, 8},            // capped by limit
				{32, 8, 5, 5},             // capped by len(dst) < limit
				{300, 100, 128, MaxBatch}, // capped by MaxBatch < limit
				{8, 1, 16, 1},             // limit 1 degenerates to a single steal
				{8, 0, 16, 0},             // limit 0 is a no-op
			} {
				d := mk()
				for i := 0; i < tc.n; i++ {
					d.PushBottom(i)
				}
				dst := make([]Item, tc.dst)
				got := d.PopTopBatch(dst, tc.limit)
				if got != tc.want {
					t.Fatalf("n=%d limit=%d len(dst)=%d: transferred %d items, want %d", tc.n, tc.limit, tc.dst, got, tc.want)
				}
				for i := 0; i < got; i++ {
					if dst[i].(int) != i {
						t.Fatalf("n=%d: dst[%d] = %v, want %d (oldest first)", tc.n, i, dst[i], i)
					}
				}
				if d.Len() != tc.n-got {
					t.Fatalf("n=%d: victim keeps %d items, want %d", tc.n, d.Len(), tc.n-got)
				}
				for i := tc.n - 1; i >= got; i-- {
					it, ok := d.PopBottom()
					if !ok || it.(int) != i {
						t.Fatalf("n=%d: victim PopBottom = %v,%v, want %d,true", tc.n, it, ok, i)
					}
				}
			}
		})
	}
}

// TestPopTopBatchDifferential drives both implementations through random
// mixed sequences including batch steals and demands identical results.
func TestPopTopBatchDifferential(t *testing.T) {
	fn := func(ops []uint8) bool {
		cl := NewChaseLev()
		lk := NewLocked()
		next := 0
		bufA := make([]Item, MaxBatch)
		bufB := make([]Item, MaxBatch)
		for _, op := range ops {
			switch op % 4 {
			case 0, 1:
				cl.PushBottom(next)
				lk.PushBottom(next)
				next++
			case 2:
				a, aok := cl.PopBottom()
				b, bok := lk.PopBottom()
				if aok != bok || (aok && a.(int) != b.(int)) {
					return false
				}
			case 3:
				limit := int(op)/4%5 + 1
				na := cl.PopTopBatch(bufA, limit)
				nb := lk.PopTopBatch(bufB, limit)
				if na != nb {
					return false
				}
				for i := 0; i < na; i++ {
					if bufA[i].(int) != bufB[i].(int) {
						return false
					}
				}
			}
			if cl.Len() != lk.Len() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentBatchSteals hammers one owner (push/pop) against batch
// thieves and single thieves simultaneously and verifies exactly-once
// consumption, and that every batch comes out strictly increasing: thieves
// may interleave inside one another's batches, and the runtime's verbatim
// transfer needs each batch oldest first even with gaps. The owner keeps
// the deque short so batches race the owner's pops and each other
// constantly.
func TestConcurrentBatchSteals(t *testing.T) {
	const (
		nItems       = 30000
		nBatchers    = 3
		nSingles     = 2
		ownerPopBias = 2 // owner pops every ownerPopBias pushes, keeping the deque short
	)
	d := NewChaseLev()
	var (
		mu   sync.Mutex
		seen = make(map[int]int, nItems)
	)
	record := func(it Item) {
		mu.Lock()
		seen[it.(int)]++
		mu.Unlock()
	}
	recordBatch := func(buf []Item) {
		for j, it := range buf {
			if j > 0 && it.(int) <= buf[j-1].(int) {
				t.Errorf("batch %v is not strictly increasing", buf)
			}
			record(it)
		}
	}
	var thieves sync.WaitGroup
	done := make(chan struct{})
	for i := 0; i < nBatchers; i++ {
		thieves.Add(1)
		go func() {
			defer thieves.Done()
			buf := make([]Item, MaxBatch)
			for {
				if n := d.PopTopBatch(buf, 8); n > 0 {
					recordBatch(buf[:n])
					continue
				}
				select {
				case <-done:
					for {
						n := d.PopTopBatch(buf, 8)
						if n == 0 {
							return
						}
						recordBatch(buf[:n])
					}
				default:
				}
			}
		}()
	}
	for i := 0; i < nSingles; i++ {
		thieves.Add(1)
		go func() {
			defer thieves.Done()
			for {
				if it, ok := d.PopTop(); ok {
					record(it)
					continue
				}
				select {
				case <-done:
					for {
						it, ok := d.PopTop()
						if !ok {
							return
						}
						record(it)
					}
				default:
				}
			}
		}()
	}
	for i := 0; i < nItems; i++ {
		d.PushBottom(i)
		if i%ownerPopBias == 0 {
			if it, ok := d.PopBottom(); ok {
				record(it)
			}
		}
	}
	for {
		it, ok := d.PopBottom()
		if !ok {
			break
		}
		record(it)
	}
	close(done)
	thieves.Wait()
	for {
		it, ok := d.PopTop()
		if !ok {
			break
		}
		record(it)
	}
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < nItems; i++ {
		if seen[i] != 1 {
			t.Fatalf("item %d consumed %d times, want exactly 1", i, seen[i])
		}
	}
}

// TestDifferentialSequential drives ChaseLev and Locked with the same
// random single-threaded operation sequence and demands identical results.
func TestDifferentialSequential(t *testing.T) {
	fn := func(ops []uint8) bool {
		cl := NewChaseLev()
		lk := NewLocked()
		next := 0
		for _, op := range ops {
			switch op % 3 {
			case 0:
				cl.PushBottom(next)
				lk.PushBottom(next)
				next++
			case 1:
				a, aok := cl.PopBottom()
				b, bok := lk.PopBottom()
				if aok != bok || (aok && a.(int) != b.(int)) {
					return false
				}
			case 2:
				a, aok := cl.PopTop()
				b, bok := lk.PopTop()
				if aok != bok || (aok && a.(int) != b.(int)) {
					return false
				}
			}
			if cl.Len() != lk.Len() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentOwnerThieves hammers a ChaseLev deque with one owner and
// several thieves and verifies that every pushed item is consumed exactly
// once.
func TestConcurrentOwnerThieves(t *testing.T) {
	const (
		nItems   = 20000
		nThieves = 4
	)
	d := NewChaseLev()
	var (
		mu   sync.Mutex
		seen = make(map[int]int, nItems)
	)
	record := func(it Item) {
		mu.Lock()
		seen[it.(int)]++
		mu.Unlock()
	}
	var consumed sync.WaitGroup
	done := make(chan struct{})
	for i := 0; i < nThieves; i++ {
		consumed.Add(1)
		go func() {
			defer consumed.Done()
			for {
				if it, ok := d.PopTop(); ok {
					record(it)
					continue
				}
				select {
				case <-done:
					// Drain anything left after the owner stops.
					for {
						it, ok := d.PopTop()
						if !ok {
							return
						}
						record(it)
					}
				default:
				}
			}
		}()
	}
	// Owner: push all items, popping some back.
	for i := 0; i < nItems; i++ {
		d.PushBottom(i)
		if i%3 == 0 {
			if it, ok := d.PopBottom(); ok {
				record(it)
			}
		}
	}
	for {
		it, ok := d.PopBottom()
		if !ok {
			break
		}
		record(it)
	}
	close(done)
	consumed.Wait()
	// One final drain from the owner side in case a thief lost a race and
	// exited while an item remained.
	for {
		it, ok := d.PopTop()
		if !ok {
			break
		}
		record(it)
	}
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < nItems; i++ {
		if seen[i] != 1 {
			t.Fatalf("item %d consumed %d times, want exactly 1", i, seen[i])
		}
	}
}

// TestConcurrentLockedSafety runs the same shape of test against the Locked
// deque under the race detector.
func TestConcurrentLockedSafety(t *testing.T) {
	const nItems = 5000
	d := NewLocked()
	var total sync.WaitGroup
	var count atomic64
	done := make(chan struct{})
	for i := 0; i < 3; i++ {
		total.Add(1)
		go func() {
			defer total.Done()
			for {
				if _, ok := d.PopTop(); ok {
					count.inc()
					continue
				}
				select {
				case <-done:
					for {
						if _, ok := d.PopTop(); !ok {
							return
						}
						count.inc()
					}
				default:
				}
			}
		}()
	}
	for i := 0; i < nItems; i++ {
		d.PushBottom(i)
	}
	for {
		if _, ok := d.PopBottom(); !ok {
			break
		}
		count.inc()
	}
	close(done)
	total.Wait()
	if got := count.load(); got != nItems {
		t.Fatalf("consumed %d items, want %d", got, nItems)
	}
}

type atomic64 struct {
	mu sync.Mutex
	n  int64
}

func (a *atomic64) inc() { a.mu.Lock(); a.n++; a.mu.Unlock() }
func (a *atomic64) load() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.n
}

func BenchmarkPushPopBottomChaseLev(b *testing.B) {
	d := NewChaseLev()
	for i := 0; i < b.N; i++ {
		d.PushBottom(i)
		d.PopBottom()
	}
}

func BenchmarkPushPopBottomLocked(b *testing.B) {
	d := NewLocked()
	for i := 0; i < b.N; i++ {
		d.PushBottom(i)
		d.PopBottom()
	}
}

func BenchmarkStealChaseLev(b *testing.B) {
	d := NewChaseLev()
	for i := 0; i < b.N; i++ {
		d.PushBottom(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.PopTop()
	}
}

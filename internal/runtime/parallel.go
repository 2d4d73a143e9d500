package runtime

// For executes body(i) for every i in [lo, hi) with fork-join parallelism:
// the range splits recursively, spawning the right half and descending
// into the left, until ranges reach grain elements, which run sequentially.
// It is the runtime analogue of the pfor loops the scheduler uses to
// re-inject resumed vertices (§3), and composes with suspension: bodies may
// perform Latency, channel, and Await operations.
//
// Each split spawns one record (forHalf) holding the right half's Future
// and arguments, so a steady-state For allocates one object per split:
// one fewer than the pieces of at most grain elements it runs.
//
// For returns when every iteration has completed. grain < 1 is treated
// as 1.
func For(c *Ctx, lo, hi, grain int, body func(*Ctx, int)) {
	if grain < 1 {
		grain = 1
	}
	forRange(c, lo, hi, grain, body)
}

// forHalf is the spawn record of For's right half: the child's Future and
// everything the half needs, in one allocation.
type forHalf struct {
	fut           Future
	lo, hi, grain int
	body          func(*Ctx, int)
}

func (h *forHalf) run(c *Ctx) { forRange(c, h.lo, h.hi, h.grain, h.body) }

func forRange(c *Ctx, lo, hi, grain int, body func(*Ctx, int)) {
	for hi-lo > grain {
		mid := lo + (hi-lo)/2
		right := &forHalf{lo: mid, hi: hi, grain: grain, body: body}
		c.spawn(right, &right.fut)
		forRange(c, lo, mid, grain, body)
		right.fut.Await(c)
		return
	}
	for i := lo; i < hi; i++ {
		body(c, i)
	}
}

// MapReduce applies mapper to every index in [lo, hi) in parallel and
// folds the results with the associative function reduce, returning the
// fold of all results with id as identity — the Figure-8 pattern of §5 as
// a library primitive. Mappers may suspend (latency, channels, awaits).
//
// Each split spawns one record (mapHalf) holding the right half's Future,
// arguments and result, so a steady-state MapReduce over n indices
// allocates n-1 objects beside what mapper and reduce allocate.
func MapReduce[T any](c *Ctx, lo, hi int, id T, mapper func(*Ctx, int) T, reduce func(T, T) T) T {
	if hi <= lo {
		return id
	}
	return mapReduce(c, lo, hi, mapper, reduce)
}

// mapHalf is the spawn record of MapReduce's right half: the child's
// Future, its arguments and its result, in one allocation.
type mapHalf[T any] struct {
	fut    Future
	lo, hi int
	mapper func(*Ctx, int) T
	reduce func(T, T) T
	v      T
}

func (h *mapHalf[T]) run(c *Ctx) { h.v = mapReduce(c, h.lo, h.hi, h.mapper, h.reduce) }

// mapReduce is MapReduce over a non-empty range. Both halves of a split
// are non-empty, so the identity is never needed below the top.
func mapReduce[T any](c *Ctx, lo, hi int, mapper func(*Ctx, int) T, reduce func(T, T) T) T {
	if hi-lo == 1 {
		return mapper(c, lo)
	}
	mid := lo + (hi-lo)/2
	right := &mapHalf[T]{lo: mid, hi: hi, mapper: mapper, reduce: reduce}
	c.spawn(right, &right.fut)
	left := mapReduce(c, lo, mid, mapper, reduce)
	right.fut.Await(c)
	return reduce(left, right.v)
}

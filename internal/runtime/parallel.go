package runtime

// For executes body(i) for every i in [lo, hi) with fork-join parallelism:
// the range splits recursively, spawning the right half and descending
// into the left, until ranges reach grain elements, which run sequentially.
// It is the runtime analogue of the pfor loops the scheduler uses to
// re-inject resumed vertices (§3), and composes with suspension: bodies may
// perform Latency, channel, and Await operations.
//
// For returns when every iteration has completed. grain < 1 is treated
// as 1.
func For(c *Ctx, lo, hi, grain int, body func(*Ctx, int)) {
	if grain < 1 {
		grain = 1
	}
	forRange(c, lo, hi, grain, body)
}

func forRange(c *Ctx, lo, hi, grain int, body func(*Ctx, int)) {
	for hi-lo > grain {
		mid := lo + (hi-lo)/2
		right := c.Spawn(func(cc *Ctx) { forRange(cc, mid, hi, grain, body) })
		forRange(c, lo, mid, grain, body)
		right.Await(c)
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
func MapReduce[T any](c *Ctx, lo, hi int, id T, mapper func(*Ctx, int) T, reduce func(T, T) T) T {
	if hi <= lo {
		return id
	}
	if hi-lo == 1 {
		return mapper(c, lo)
	}
	mid := lo + (hi-lo)/2
	right := SpawnValue(c, func(cc *Ctx) T {
		return MapReduce(cc, mid, hi, id, mapper, reduce)
	})
	left := MapReduce(c, lo, mid, id, mapper, reduce)
	return reduce(left, right.Await(c))
}

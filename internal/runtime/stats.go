package runtime

import "sync/atomic"

// statShard holds one worker's hot scheduler counters. The counters that
// fire on every scheduling quantum (task run slices, spawns, completions,
// suspensions, switches, steal attempts) used to live on shared atomics,
// so every quantum on every worker bounced the same cache line; sharding
// them per-worker makes each increment a local (usually cache-resident)
// atomic. Rare counters (cancellations, panics, the deque high-water
// mark) stay global in atomicStats.
//
// The pad keeps each shard on its own cache lines (two 64-byte lines, to
// defeat adjacent-line prefetching) so neighbouring workers never share.
type statShard struct {
	tasksRun      atomic.Int64
	inlineJoins   atomic.Int64 // children run as function calls (Ctx.runInline)
	tasksSpawned  atomic.Int64
	tasksDone     atomic.Int64 // lives settled here; with tasksSpawned, the termination test (runtimeState.live)
	suspensions   atomic.Int64
	switches      atomic.Int64
	stealAttempts atomic.Int64
	steals        atomic.Int64
	// running is 1 while this worker is switched into a task. It lives
	// on the shard — not a shared atomic — because it is written twice
	// per scheduling quantum; the watchdog sums it across shards.
	running atomic.Int64
	// resumeBatches / resumeBatchTasks count drainResumed's multi-task
	// pfor-tree injections: a drain of n>1 resumed tasks is one batch
	// (one PushBottom) carrying n tasks. Tests assert on these to pin
	// the single-injection-per-drain property.
	resumeBatches    atomic.Int64
	resumeBatchTasks atomic.Int64
	// batchItems counts the items successful steals transferred;
	// batchItems / steals is the steal-half amortization factor.
	batchItems atomic.Int64
	// parks counts the times this worker waited for a wake token in idle;
	// wakes counts the tokens sent to it (written by the waker, which may
	// be any goroutine).
	parks atomic.Int64
	wakes atomic.Int64
	_     [128 - 14*8]byte
}

// tasksRunTotal sums the run-slice counter across shards; the watchdog
// polls it as its progress signal. A torn (non-instantaneous) sum is fine
// there: any increment between polls changes the total.
func (rt *runtimeState) tasksRunTotal() int64 {
	var n int64
	for i := range rt.shards {
		n += rt.shards[i].tasksRun.Load()
	}
	return n
}

// runningTotal reports how many workers are currently switched into a
// task; like tasksRunTotal, a torn sum is acceptable for the watchdog's
// progress test.
func (rt *runtimeState) runningTotal() int64 {
	var n int64
	for i := range rt.shards {
		n += rt.shards[i].running.Load()
	}
	return n
}

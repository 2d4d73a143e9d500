package runtime

// This file is the scheduler's load signal: a point-in-time saturation
// estimate an admission controller (lhws/internal/admit) samples to
// decide between admitting, degrading, and rejecting new work. Its input
// is the symptom of overload the paper's server scenario exhibits when
// requests outpace P workers: runnable work piling up beside busy
// workers.
//
// Sampling is pull-based and O(P): the admission path asks at request
// granularity, so the scheduler hot paths pay nothing to maintain the
// signal beyond counters they already keep.

// Load is one sample of the runtime's saturation state.
type Load struct {
	// ReadyTasks is the number of runnable-but-not-running tasks across
	// all workers: queued deque items plus resumed tasks awaiting
	// re-injection by their owner. A pfor-tree batch counts as one item,
	// so this undercounts resumed storms slightly; it is a load signal,
	// not an exact census. The resumed component matters under CPU
	// saturation: that is where woken work piles up while every worker
	// slot is busy, and an admission signal that ignored it would keep
	// reading "idle" straight through a collapse.
	ReadyTasks int
	// Running is the number of workers currently switched into a task.
	Running int
	// Saturation is the headline estimate: (ReadyTasks + Running) / P.
	// ~0 means idle capacity, ~1 means exactly busy, >1 means queueing —
	// each admitted request waits for roughly Saturation service times.
	Saturation float64
}

// LoadSignal samples the runtime's current load. It is safe to call from
// any task at any time; the cost is P leaf-mutex acquisitions, one per
// worker, and no allocation.
func (c *Ctx) LoadSignal() Load { return c.t.rt.loadSignal() }

func (rt *runtimeState) loadSignal() Load {
	var ld Load
	for _, w := range rt.workers {
		w.mu.Lock()
		if a := w.active; a != nil {
			ld.ReadyTasks += a.q.Len()
		}
		for _, d := range w.ready {
			ld.ReadyTasks += d.q.Len()
		}
		ld.ReadyTasks += len(w.resumed)
		w.mu.Unlock()
	}
	ld.Running = int(rt.runningTotal())
	if p := rt.cfg.Workers; p > 0 {
		ld.Saturation = float64(ld.ReadyTasks+ld.Running) / float64(p)
	}
	return ld
}

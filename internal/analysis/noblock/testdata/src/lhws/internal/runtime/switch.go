package runtime

type worker struct{}

// task stands in for the runtime's task shell; next is its coroutine's
// iter.Pull next.
type task struct {
	next func() (int, bool)
}

// switchIn is the coroutine switch. Its body is a call of a function
// value, which the may-block summary cannot see into, so the analyzer
// knows the switch by name.
func (t *task) switchIn() int {
	r, _ := t.next()
	return r
}

func (w *worker) runTask(t *task) int { return t.switchIn() }

// switchHot switches into a task straight from a checked hot path.
//
//lhws:nonblocking
func switchHot(t *task) {
	t.switchIn() // want `switches into the task's coroutine until it yields`
}

// loopHot reaches the switch through a helper: the summary carries it.
//
//lhws:nonblocking
func loopHot(w *worker, t *task) {
	w.runTask(t) // want `call may block the worker: .*runTask → .*switchIn`
}

// loopVouched is the worker loop's shape: the switch justified where it
// happens.
//
//lhws:nonblocking
func loopVouched(w *worker, t *task) {
	w.runTask(t) //lhws:allowblock the coroutine switch parks the loop only while its task runs
}

// Package trace collects and renders per-round execution traces of the
// simulated schedulers (package sched).
//
// A Timeline records one sched.Action per worker per round. From it the
// package derives the Lemma-1 token buckets (work / switch / steal),
// worker-utilization series, ASCII Gantt charts for small executions, and
// CSV export for plotting.
package trace

import (
	"fmt"
	"strings"

	"lhws/internal/sched"
)

// Timeline is a sched.Tracer that stores every action, indexed by round
// and worker. Memory grows with rounds×workers; use it on executions of
// bounded length (the Buckets collector is O(1) if only totals are
// needed).
type Timeline struct {
	workers int
	rows    [][]sched.Action // rows[round][worker]
}

// NewTimeline returns a Timeline for the given worker count.
func NewTimeline(workers int) *Timeline {
	return &Timeline{workers: workers}
}

// Record implements sched.Tracer.
func (t *Timeline) Record(round int64, worker int, a sched.Action) {
	for int64(len(t.rows)) <= round {
		t.rows = append(t.rows, make([]sched.Action, t.workers))
	}
	t.rows[round][worker] = a
}

// Rounds returns the number of recorded rounds.
func (t *Timeline) Rounds() int { return len(t.rows) }

// Workers returns the worker count.
func (t *Timeline) Workers() int { return t.workers }

// At returns the action of a worker in a round. Unrecorded cells are
// ActionIdle (the zero value).
func (t *Timeline) At(round int64, worker int) sched.Action {
	if round < 0 || round >= int64(len(t.rows)) {
		return sched.ActionIdle
	}
	return t.rows[round][worker]
}

// Buckets are the Lemma-1 token buckets over a full execution.
type Buckets struct {
	Work    int64 // dag vertices + pfor vertices
	Switch  int64
	Steal   int64 // attempts, successful or not
	Blocked int64
	Idle    int64
}

// add counts one action in its bucket.
func (b *Buckets) add(a sched.Action) {
	switch a {
	case sched.ActionWork, sched.ActionPfor:
		b.Work++
	case sched.ActionSwitch:
		b.Switch++
	case sched.ActionStealHit, sched.ActionStealMiss:
		b.Steal++
	case sched.ActionBlocked:
		b.Blocked++
	default:
		b.Idle++
	}
}

// Buckets tallies the timeline into Lemma-1 buckets.
func (t *Timeline) Buckets() Buckets {
	var b Buckets
	for _, row := range t.rows {
		for _, a := range row {
			b.add(a)
		}
	}
	return b
}

// Utilization returns, per round, the fraction of workers doing work
// (executing dag or pfor vertices).
func (t *Timeline) Utilization() []float64 {
	out := make([]float64, len(t.rows))
	for i, row := range t.rows {
		busy := 0
		for _, a := range row {
			if a == sched.ActionWork || a == sched.ActionPfor {
				busy++
			}
		}
		out[i] = float64(busy) / float64(t.workers)
	}
	return out
}

// MeanUtilization returns the average worker utilization over the run.
func (t *Timeline) MeanUtilization() float64 {
	u := t.Utilization()
	if len(u) == 0 {
		return 0
	}
	var sum float64
	for _, v := range u {
		sum += v
	}
	return sum / float64(len(u))
}

// Gantt renders an ASCII chart, one row per worker, one column per round:
// W=work, F=pfor, C=switch, S=steal hit, s=steal miss, B=blocked, .=idle.
// maxCols truncates wide timelines (0 means no limit).
func (t *Timeline) Gantt(maxCols int) string {
	cols := len(t.rows)
	truncated := false
	if maxCols > 0 && cols > maxCols {
		cols = maxCols
		truncated = true
	}
	var sb strings.Builder
	for w := 0; w < t.workers; w++ {
		fmt.Fprintf(&sb, "w%-3d ", w)
		for r := 0; r < cols; r++ {
			sb.WriteString(t.rows[r][w].String())
		}
		if truncated {
			sb.WriteString("…")
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// CSV renders the timeline as "round,worker,action" lines with a header,
// for external plotting.
func (t *Timeline) CSV() string {
	var sb strings.Builder
	sb.WriteString("round,worker,action\n")
	for r, row := range t.rows {
		for w, a := range row {
			fmt.Fprintf(&sb, "%d,%d,%s\n", r, w, actionName(a))
		}
	}
	return sb.String()
}

func actionName(a sched.Action) string {
	switch a {
	case sched.ActionWork:
		return "work"
	case sched.ActionPfor:
		return "pfor"
	case sched.ActionSwitch:
		return "switch"
	case sched.ActionStealHit:
		return "steal"
	case sched.ActionStealMiss:
		return "steal-fail"
	case sched.ActionBlocked:
		return "blocked"
	default:
		return "idle"
	}
}

// WorkerBuckets tallies buckets per worker, exposing load imbalance: a
// latency-hiding scheduler should spread work roughly evenly once steals
// distribute the dag.
func (t *Timeline) WorkerBuckets() []Buckets {
	out := make([]Buckets, t.workers)
	for _, row := range t.rows {
		for w, a := range row {
			out[w].add(a)
		}
	}
	return out
}

// Summary renders a per-worker bucket table plus totals.
func (t *Timeline) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-8s %10s %10s %10s %10s %10s\n", "worker", "work", "switch", "steal", "blocked", "idle")
	for w, b := range t.WorkerBuckets() {
		fmt.Fprintf(&sb, "w%-7d %10d %10d %10d %10d %10d\n", w, b.Work, b.Switch, b.Steal, b.Blocked, b.Idle)
	}
	tot := t.Buckets()
	fmt.Fprintf(&sb, "%-8s %10d %10d %10d %10d %10d\n", "total", tot.Work, tot.Switch, tot.Steal, tot.Blocked, tot.Idle)
	return sb.String()
}

// Counter is a sched.Tracer that keeps only bucket totals, suitable for
// arbitrarily long executions.
type Counter struct {
	B Buckets
}

// Record implements sched.Tracer.
func (c *Counter) Record(round int64, worker int, a sched.Action) { c.B.add(a) }

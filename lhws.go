// Package lhws is a Go implementation of latency-hiding work stealing
// (Muller & Acar, "Latency-Hiding Work Stealing", SPAA 2016): a scheduler
// for parallel computations whose threads may suspend on latency-incurring
// operations — I/O, remote procedure calls, user input — without blocking
// the worker executing them.
//
// The module has two halves, both re-exported here:
//
//   - A deterministic simulator of the paper's round-based cost model.
//     Computations are weighted dags (NewDAGBuilder / the Workload
//     generators); RunLHWS, RunWS and RunGreedy execute them on P virtual
//     workers and report rounds, steals, deque counts, and the other
//     quantities the paper's analysis bounds.
//
//   - A real task runtime (RuntimeConfig{…} / RunTasks) executing Go code
//     over worker goroutines with wall-clock latencies, in latency-hiding
//     or blocking mode.
//
// The Example functions (go test -run Example -v .) are the runnable
// entry points; DESIGN.md has the system inventory and EXPERIMENTS.md the
// reproduction of the paper's evaluation.
package lhws

import (
	"net"

	"lhws/internal/bufpool"
	"lhws/internal/dag"
	"lhws/internal/io"
	"lhws/internal/runtime"
	"lhws/internal/sched"
	"lhws/internal/workload"
)

// Weighted-dag model (paper §2).
type (
	// Graph is an immutable weighted computation dag.
	Graph = dag.Graph
	// DAGBuilder incrementally constructs a Graph.
	DAGBuilder = dag.Builder
)

// NewDAGBuilder returns an empty dag builder.
func NewDAGBuilder() *DAGBuilder { return dag.NewBuilder() }

// Simulated schedulers (paper §3).
type (
	// SchedOptions configures a simulated execution.
	SchedOptions = sched.Options
	// SchedResult is the outcome of a simulated execution.
	SchedResult = sched.Result
	// StealPolicy selects the steal-victim policy.
	StealPolicy = sched.StealPolicy
)

// Steal policies for RunLHWS.
const (
	// StealRandomDeque is the paper's analyzed policy (§3).
	StealRandomDeque = sched.StealRandomDeque
	// StealWorkerThenDeque is the implementation policy (§6).
	StealWorkerThenDeque = sched.StealWorkerThenDeque
)

// RunLHWS executes a weighted dag with the latency-hiding work-stealing
// scheduler of the paper's Figure 3 on opt.Workers simulated workers.
func RunLHWS(g *Graph, opt SchedOptions) (*SchedResult, error) { return sched.RunLHWS(g, opt) }

// RunWS executes a weighted dag with standard (blocking) work stealing —
// the baseline of the paper's evaluation. It is RunLHWS with heavy edges
// that block the worker instead of suspending, and StealWorkerThenDeque
// steals.
func RunWS(g *Graph, opt SchedOptions) (*SchedResult, error) { return sched.RunWS(g, opt) }

// RunGreedy executes a weighted dag with an offline greedy schedule,
// achieving the Theorem-1 bound of W/P + S rounds.
func RunGreedy(g *Graph, workers int) (*SchedResult, error) { return sched.RunGreedy(g, workers) }

// GreedyBound returns the Theorem-1 bound W/P + S.
func GreedyBound(g *Graph, workers int) int64 { return sched.GreedyBound(g, workers) }

// Workload generators (paper §5 and §6.1).
type (
	// Workload is a generated computation dag plus provenance.
	Workload = workload.Workload
	// MapReduceConfig parameterizes the distributed map-reduce of §5.
	MapReduceConfig = workload.MapReduceConfig
	// ServerConfig parameterizes the server example of §5.
	ServerConfig = workload.ServerConfig
	// PipelineConfig parameterizes the streaming-pipeline workload.
	PipelineConfig = workload.PipelineConfig
	// RandomConfig parameterizes random fork-join dags.
	RandomConfig = workload.RandomConfig
)

// MapReduce builds the §5 distributed map-reduce workload (U = n).
func MapReduce(cfg MapReduceConfig) *Workload { return workload.MapReduce(cfg) }

// Server builds the §5 server workload (U = 1).
func Server(cfg ServerConfig) *Workload { return workload.Server(cfg) }

// Fib builds the latency-free parallel Fibonacci workload (U = 0).
func Fib(n int) *Workload { return workload.Fib(n) }

// Pipeline builds a streaming-pipeline workload.
func Pipeline(cfg PipelineConfig) *Workload { return workload.Pipeline(cfg) }

// RandomDAG builds a structurally valid random fork-join dag.
func RandomDAG(cfg RandomConfig) *Workload { return workload.Random(cfg) }

// Real task runtime (paper §6).
type (
	// RuntimeConfig configures the goroutine-backed task runtime.
	RuntimeConfig = runtime.Config
	// RuntimeStats reports counters from a runtime execution.
	RuntimeStats = runtime.Stats
	// RuntimeMode selects latency-hiding or blocking scheduling.
	RuntimeMode = runtime.Mode
	// Ctx is a task's handle to the runtime.
	Ctx = runtime.Ctx
)

// Value is a Future carrying a typed result; create one with SpawnValue.
type Value[T any] = runtime.Value[T]

// Chan is a task-level message channel whose blocking operations suspend
// the task (latency-hiding mode) instead of the worker.
type Chan[T any] = runtime.Chan[T]

// NewChan returns a channel with the given capacity; capacity < 1 means
// unbounded.
func NewChan[T any](capacity int) *Chan[T] { return runtime.NewChan[T](capacity) }

// For executes body(i) for i in [lo, hi) with fork-join parallelism at the
// given grain; bodies may suspend.
func For(c *Ctx, lo, hi, grain int, body func(*Ctx, int)) {
	runtime.For(c, lo, hi, grain, body)
}

// ParallelMapReduce applies mapper to [lo, hi) in parallel and folds the
// results left-to-right with the associative reduce — the §5 distributed
// map-reduce as a library primitive.
func ParallelMapReduce[T any](c *Ctx, lo, hi int, id T, mapper func(*Ctx, int) T, reduce func(T, T) T) T {
	return runtime.MapReduce(c, lo, hi, id, mapper, reduce)
}

// Runtime modes.
const (
	// LatencyHiding runs the LHWS algorithm on the real runtime.
	LatencyHiding = runtime.LatencyHiding
	// Blocking runs standard blocking work stealing.
	Blocking = runtime.Blocking
)

// RunTasks executes root (and everything it spawns) on a fresh worker pool.
// It returns a typed error when the execution fails — ErrTaskPanic,
// ErrCanceled, ErrDeadline, or a *StallError — after unwinding and
// draining every task; stats are returned even on error.
func RunTasks(cfg RuntimeConfig, root func(*Ctx)) (*RuntimeStats, error) {
	return runtime.Run(cfg, root)
}

// Typed errors from the runtime's resilience layer (see RunTasks).
var (
	// ErrTaskPanic wraps the first panic raised inside a task.
	ErrTaskPanic = runtime.ErrTaskPanic
	// ErrCanceled reports explicit cancellation (Ctx.Cancel or the cancel
	// function of WithCancel/WithDeadline).
	ErrCanceled = runtime.ErrCanceled
	// ErrDeadline reports an elapsed Ctx.WithDeadline or RuntimeConfig.Deadline.
	ErrDeadline = runtime.ErrDeadline
	// ErrStalled reports a watchdog-detected lost wakeup or deadlock;
	// errors carrying it are *StallError diagnostics.
	ErrStalled = runtime.ErrStalled
)

// StallError is the structured deadlock / lost-wakeup diagnostic the
// suspension watchdog (RuntimeConfig.StallTimeout) returns instead of
// letting a run hang.
type StallError = runtime.StallError

// SpawnValue spawns f as a child task returning a typed result handle.
func SpawnValue[T any](c *Ctx, f func(*Ctx) T) *Value[T] {
	return runtime.SpawnValue(c, f)
}

// Real-latency I/O (DESIGN.md §9): sockets whose Read/Write/Accept/Dial
// suspend the calling task — never its worker — through the same
// heavy-edge protocol as Ctx.Latency, so network waits overlap with
// useful work exactly as the paper's model prescribes.
type (
	// IOConn is a socket with task-suspending Read and Write. Beyond the
	// plain []byte calls it carries the pooled data plane: ReadBuf reads
	// into a pooled IOBuf (zero allocation at steady state), QueueWrite +
	// Flush coalesce a framed reply into one vectored writev, and
	// SetOpTimeout arms a per-operation deadline that fails the op with
	// ErrOpTimeout while leaving the connection usable.
	IOConn = io.Conn
	// IOListener is a listening socket with task-suspending Accept.
	IOListener = io.Listener
	// IOBuf is a pooled reference-counted buffer (see IOConn.ReadBuf).
	// The holder owns one reference; Release returns the buffer to its
	// size-class pool, Retain adds a reference for another holder.
	IOBuf = bufpool.Buf
)

// ErrOpTimeout reports an I/O operation that outran the connection's
// per-op budget (IOConn.SetOpTimeout). It is an ordinary operation
// error, not a cancellation: the task keeps running and the connection
// stays usable.
var ErrOpTimeout = io.ErrOpTimeout

// IODial connects to addr, suspending the task for the handshake.
func IODial(c *Ctx, network, addr string) (*IOConn, error) { return io.Dial(c, network, addr) }

// IOListen opens a listening socket; only Accept suspends.
func IOListen(c *Ctx, network, addr string) (*IOListener, error) {
	return io.Listen(c, network, addr)
}

// IOWrap adopts an existing net.Conn into the task runtime. The conn
// must support deadlines (as all TCP/Unix conns do); a conn whose
// SetDeadline errors is rejected up front, because cancellation and
// shutdown both rely on deadline kicks to interrupt in-flight calls.
func IOWrap(c *Ctx, nc net.Conn) (*IOConn, error) { return io.Wrap(c, nc) }

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
// See the examples directory for runnable entry points, DESIGN.md for the
// system inventory, and EXPERIMENTS.md for the reproduction of the paper's
// evaluation.
package lhws

import (
	"net"
	"time"

	"lhws/internal/admit"
	"lhws/internal/bufpool"
	"lhws/internal/dag"
	"lhws/internal/experiments"
	"lhws/internal/faultpoint"
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
	// VertexID identifies a vertex within a Graph.
	VertexID = dag.VertexID
	// OutEdge is a directed, latency-weighted edge.
	OutEdge = dag.OutEdge
)

// NoVertex is the sentinel for "no vertex".
const NoVertex = dag.None

// NewDAGBuilder returns an empty dag builder.
func NewDAGBuilder() *DAGBuilder { return dag.NewBuilder() }

// Sequence composes two dags serially; weight > 1 models a
// latency-incurring handoff between them.
func Sequence(g1, g2 *Graph, weight int64) *Graph { return dag.Sequence(g1, g2, weight) }

// ParallelDAGs composes dags under a fork tree with a matching join tree.
func ParallelDAGs(gs ...*Graph) *Graph { return dag.ParallelAll(gs...) }

// WithEntryLatency prefixes a dag with a latency-incurring fetch vertex.
func WithEntryLatency(g *Graph, label string, delta int64) *Graph {
	return dag.WithEntryLatency(g, label, delta)
}

// Simulated schedulers (paper §3).
type (
	// SchedOptions configures a simulated execution.
	SchedOptions = sched.Options
	// SchedResult is the outcome of a simulated execution.
	SchedResult = sched.Result
	// SchedStats aggregates counters from one simulated execution.
	SchedStats = sched.Stats
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
	// Future is the completion handle of a spawned task.
	Future = runtime.Future
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
	// ErrChanClosed reports a Chan closed under a suspended sender.
	ErrChanClosed = runtime.ErrChanClosed
)

// Watchdog diagnostics (RuntimeConfig.StallTimeout).
type (
	// StallError is the structured deadlock / lost-wakeup diagnostic the
	// suspension watchdog returns instead of letting a run hang.
	StallError = runtime.StallError
	// StallWait describes one suspension outstanding at stall time.
	StallWait = runtime.StallWait
)

// Fault injection for chaos testing (RuntimeConfig.Faults).
type (
	// FaultInjector decides, per scheduler fault-point occurrence, whether
	// to inject a fault; construct with NewFaultInjector.
	FaultInjector = faultpoint.Injector
	// FaultRule configures one fault point: Action at probability Rate.
	FaultRule = faultpoint.Rule
	// FaultPoint names a scheduler location where faults can be injected.
	FaultPoint = faultpoint.Point
	// FaultAction is what happens when a fault point fires.
	FaultAction = faultpoint.Action
)

// NewFaultInjector returns an injector with no rules armed, seeded for
// replayable chaos runs; arm points with Set and pass it as
// RuntimeConfig.Faults.
func NewFaultInjector(seed uint64) *FaultInjector { return faultpoint.New(seed) }

// Fault points.
const (
	// FaultSteal is a steal attempt (Fail forces a miss).
	FaultSteal = faultpoint.Steal
	// FaultSuspend is the task-side entry to a suspending operation.
	FaultSuspend = faultpoint.Suspend
	// FaultResumeInject is the wakeup returning a suspended task to its deque.
	FaultResumeInject = faultpoint.ResumeInject
	// FaultChanWakeup is the channel-handoff wakeup.
	FaultChanWakeup = faultpoint.ChanWakeup
	// FaultTaskBody is the entry of a task's user function.
	FaultTaskBody = faultpoint.TaskBody
	// FaultPollComplete is an external I/O completion being delivered to a
	// suspended task (poller readiness, AwaitExternal completion).
	FaultPollComplete = faultpoint.PollComplete
	// FaultWorkerWake is the wake of a parked worker: the owner of a deque
	// whose resumed set became non-empty, or one idle worker when
	// stealable work is published.
	FaultWorkerWake = faultpoint.WorkerWake
)

// Fault actions.
const (
	// FaultNone leaves the operation untouched.
	FaultNone = faultpoint.None
	// FaultFail reports failure (steal attempts miss).
	FaultFail = faultpoint.Fail
	// FaultDrop swallows a wakeup entirely.
	FaultDrop = faultpoint.Drop
	// FaultDelay defers the operation by FaultRule.Delay.
	FaultDelay = faultpoint.Delay
	// FaultDup delivers a wakeup twice, FaultRule.Delay apart.
	FaultDup = faultpoint.Dup
	// FaultPanic panics at the fault point (task-side points only).
	FaultPanic = faultpoint.Panic
)

// SpawnValue spawns f as a child task returning a typed result handle.
func SpawnValue[T any](c *Ctx, f func(*Ctx) T) *runtime.Value[T] {
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

// AwaitExternal suspends the task until an external completion arrives:
// arm starts the operation and is given a complete callback (callable
// from any goroutine, exactly once); the returned cancel is invoked if
// the task's scope aborts first. This is the generic adapter that turns
// any callback- or channel-shaped API into a heavy edge.
func AwaitExternal[T any](c *Ctx, site string, arm func(complete func(T, error)) (cancel func(error))) (T, error) {
	return runtime.AwaitExternal[T](c, site, arm)
}

// AwaitChan receives from ch, suspending the task instead of the worker.
// The error is ErrChanClosed if ch was closed.
func AwaitChan[T any](c *Ctx, ch <-chan T) (T, error) { return runtime.AwaitChan[T](c, ch) }

// WaitKind classifies what a suspension is waiting for; the watchdog
// reports it in StallWait.
type WaitKind = runtime.WaitKind

// Wait kinds.
const (
	// KindOther is an unclassified suspension.
	KindOther = runtime.KindOther
	// KindTimer waits on a Latency timer.
	KindTimer = runtime.KindTimer
	// KindFuture waits on a task completion (Await).
	KindFuture = runtime.KindFuture
	// KindChan waits on a runtime channel operation.
	KindChan = runtime.KindChan
	// KindFD waits on socket readiness or I/O completion.
	KindFD = runtime.KindFD
	// KindExternal waits on a generic external completion (AwaitExternal).
	KindExternal = runtime.KindExternal
)

// Overload control (DESIGN.md §11): per-request latency targets,
// deadline-aware admission, load shedding, and graceful drain for
// server-shaped workloads built on the runtime and I/O layers.
type (
	// AdmitConfig parameterizes an admission controller: an inflight
	// credit pool plus saturation thresholds for degrade and reject.
	AdmitConfig = admit.Config
	// AdmitController is the deadline-aware admission controller; it
	// also implements IOGate for accept-path backpressure.
	AdmitController = admit.Controller
	// AdmitTicket is one admitted request's handle: consult Degraded /
	// Parallelism for the degrade decision, Bind a scope cancel for
	// drain-time shedding, and Done to release the credit.
	AdmitTicket = admit.Ticket
	// AdmitPolicy is the admission decision attached to a ticket.
	AdmitPolicy = admit.Policy
	// DrainReport summarizes a graceful drain.
	DrainReport = admit.DrainReport
	// RuntimeLoad is one sample of the runtime's saturation state
	// (Ctx.LoadSignal), the input to admission decisions.
	RuntimeLoad = runtime.Load
	// IOGate is the admission valve a Listener consults before pulling
	// connections out of the kernel backlog (IOListener.SetGate).
	IOGate = io.Gate
)

// Admission policies.
const (
	// AdmitFull runs the request at full parallelism.
	AdmitFull = admit.Admitted
	// AdmitDegraded runs the request with inner parallelism shed.
	AdmitDegraded = admit.Degraded
)

// Overload-control errors.
var (
	// ErrOverload reports admission refused because the runtime is
	// saturated (reject-fast).
	ErrOverload = admit.ErrOverload
	// ErrAdmitDraining reports admission refused because the controller
	// is draining for shutdown.
	ErrAdmitDraining = admit.ErrDraining
	// ErrTargetMissed reports a subtree shed because its latency target
	// had already passed (RuntimeConfig.ShedBlownTargets).
	ErrTargetMissed = runtime.ErrTargetMissed
)

// NewAdmitController returns an admission controller for the given
// thresholds; share one per server. Zero-valued thresholds disable
// their checks.
func NewAdmitController(cfg AdmitConfig) *AdmitController { return admit.New(cfg) }

// WithTarget derives a scope carrying a soft latency target d from now:
// deadline-aware deque selection prefers its work, steal gating may
// shed it once the target has passed (unlike WithDeadline, no timer
// fires — a blown target without ShedBlownTargets only marks the task
// late in RuntimeStats.TasksLate).
func WithTarget(c *Ctx, d time.Duration) (*Ctx, func()) { return c.WithTarget(d) }

// Experiment drivers reproducing the paper's evaluation; see EXPERIMENTS.md.
type (
	// Fig11Config parameterizes one panel of Figure 11.
	Fig11Config = experiments.Fig11Config
	// Fig11Result is one reproduced panel of Figure 11.
	Fig11Result = experiments.Fig11Result
)

// Fig11 reproduces one panel of the paper's Figure 11 in the simulator.
func Fig11(cfg Fig11Config) (*Fig11Result, error) { return experiments.Fig11(cfg) }

// ScaledFig11 returns the laptop-scale Figure 11 configuration for the
// given panel latency in milliseconds (500, 50, or 1 in the paper).
func ScaledFig11(deltaMS float64) Fig11Config { return experiments.ScaledFig11(deltaMS) }

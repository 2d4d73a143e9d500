// Command benchmark is the repo's benchmark: four workloads, the
// end-to-end metrics a user of the runtime would see measured with
// tracing off, and a per-layer ledger from a separate traced run in which
// every layer (runtime, deque, timerwheel, io, bufpool, admit) is measured
// from outside. BENCHMARK.json at the repo root describes it; README.md
// here explains every workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	goruntime "runtime"
	"runtime/debug"
	"sort"
	"time"

	lio "lhws/internal/io"
	"lhws/internal/runtime"
)

type workload struct {
	name string
	why  string
	// run performs one episode; tr is nil in the untraced run.
	run func(p params, tr *tracer) episode
	// Trace sizing: about three times the units (rounds, requests) a second
	// the workload does today, and the spans one traced unit records.
	unitsPerSec, spansPerUnit float64
	// baseline measures the workload's native reference within budget and
	// returns it under its per-layer metric name.
	baseline func(p params, budget time.Duration) (name string, v float64)
}

var workloads = []workload{
	{
		name: "forkjoin",
		why:  "U=0: only runtime spawn/await/grant and deque work; bypasses timerwheel, io, bufpool and admit",
		run:  forkjoin, unitsPerSec: 500, spansPerUnit: 1 + 2*float64(fibSpawns(fibN)),
		baseline: func(p params, budget time.Duration) (string, float64) {
			return "baseline.go_waitgroup_tasks_per_s", baselineGoWaitGroup(budget)
		},
	},
	{
		name: "mapreduce",
		why:  "U=n: every task suspends once on a timer, so timerwheel and the suspend/resume/inject path do the work; no sockets",
		run:  mapreduce, unitsPerSec: 200, spansPerUnit: 1 + mapItems,
		baseline: func(p params, _ time.Duration) (string, float64) {
			return "baseline.blocking_items_per_s", baselineBlocking(p, 256)
		},
	},
	{
		name: "serve",
		why:  "smallest-frame request/reply on always-busy conns: per-request cost is the io crossing plus a small fan-out",
		run:  serve, unitsPerSec: 100_000, spansPerUnit: 5 + 2*fanout,
		baseline: func(p params, budget time.Duration) (string, float64) {
			p.window = budget
			return "baseline.net_echo_rtt_us_p50", baselineNetEcho(p, serveClientsPerWorker*p.workers, 0, warmServe)
		},
	},
	{
		name: "serve_sparse",
		why:  "same handler beside 64 parked idle conns: the cost becomes finding the one ready conn among parked ones",
		run:  serveSparse, unitsPerSec: 200, spansPerUnit: 5 + 2*fanout,
		baseline: func(p params, budget time.Duration) (string, float64) {
			p.window = budget
			return "baseline.net_echo_rtt_us_p50", baselineNetEcho(p, sparseClientsPerWorker*p.workers, idleConns, warmSparse)
		},
	},
}

// metricDef declares a metric as BENCHMARK.json does. bound is the share
// of the parent's median by which an end-to-end metric may get worse.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

var endToEnd = []metricDef{
	{"throughput_ops_s", "1/s", "higher", 0.25},
	{"latency_p50_us", "us", "lower", 0.25},
	{"latency_p99_us", "us", "lower", 0.25},
	{"allocs_per_op", "1/op", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

var perLayer = []metricDef{
	{Name: "runtime.spawn_ns_p50", Unit: "ns", Better: "lower"},
	{Name: "runtime.await_ns_p50", Unit: "ns", Better: "lower"},
	{Name: "runtime.ladder_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "runtime.resume_delay_us_p50", Unit: "us", Better: "lower"},
	{Name: "runtime.resume_delay_us_p99", Unit: "us", Better: "lower"},
	{Name: "runtime.resume_batch_mean", Unit: "count", Better: "higher"},
	{Name: "runtime.suspensions_per_op", Unit: "1/op", Better: "lower"},
	{Name: "runtime.slices_per_op", Unit: "1/op", Better: "lower"},
	{Name: "runtime.steal_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "runtime.items_per_steal", Unit: "count", Better: "higher"},
	{Name: "runtime.switches_per_op", Unit: "1/op", Better: "lower"},
	{Name: "runtime.max_deques_per_worker", Unit: "count", Better: "lower"},
	{Name: "runtime.mem_sys_mb", Unit: "MB", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "deque.push_pop_ns", Unit: "ns", Better: "lower"},
	{Name: "deque.pop_top_ns", Unit: "ns", Better: "lower"},
	{Name: "deque.pop_top_batch_ns_per_item", Unit: "ns", Better: "lower"},
	{Name: "timerwheel.arm_stop_ns", Unit: "ns", Better: "lower"},
	{Name: "timerwheel.fire_late_us_p50", Unit: "us", Better: "lower"},
	{Name: "timerwheel.fire_late_us_p99", Unit: "us", Better: "lower"},
	{Name: "io.read_wake_us_p50", Unit: "us", Better: "lower"},
	{Name: "io.read_wake_us_p99", Unit: "us", Better: "lower"},
	{Name: "io.flush_us_p50", Unit: "us", Better: "lower"},
	{Name: "io.reply_us_p50", Unit: "us", Better: "lower"},
	{Name: "io.accept_us_p50", Unit: "us", Better: "lower"},
	{Name: "io.peak_bridges", Unit: "count", Better: "lower"},
	{Name: "serve.handler_us_p50", Unit: "us", Better: "lower"},
	{Name: "bufpool.get_release_ns", Unit: "ns", Better: "lower"},
	{Name: "bufpool.recycle_ratio", Unit: "ratio", Better: "higher"},
	{Name: "admit.admit_ns_p50", Unit: "ns", Better: "lower"},
	{Name: "admit.rejected_ratio", Unit: "ratio", Better: "lower"},
	{Name: "baseline.go_waitgroup_tasks_per_s", Unit: "1/s", Better: "higher"},
	{Name: "baseline.net_echo_rtt_us_p50", Unit: "us", Better: "lower"},
	{Name: "baseline.blocking_items_per_s", Unit: "1/s", Better: "higher"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.spans", Unit: "count", Better: "higher"},
	{Name: "trace.unbalanced_requests", Unit: "count", Better: "lower"},
	{Name: "fail_ratio", Unit: "ratio", Better: "lower"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	samples int64   // latency samples behind the p99
	tailOK  bool    // percentile accepted that many for a p99
	errs    []error // what broke, for the human-readable part
}

// newResult fills every declared metric with 0, so that a metric a
// workload does not exercise is reported as 0 rather than left out.
func newResult(defs []metricDef) *result {
	r := &result{Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		r.Metrics[d.Name] = metric{Unit: d.Unit}
	}
	return r
}

func (r *result) set(name string, v float64) {
	m, ok := r.Metrics[name]
	if !ok {
		panic("benchmark: undeclared metric " + name)
	}
	m.Value = v
	r.Metrics[name] = m
}

// count adds an episode's operations to the result's tally.
func (r *result) count(ep episode) {
	r.Attempted += ep.attempted
	r.Failed += ep.failed
	r.Correct = r.Failed == 0 && len(r.errs) == 0 && r.Attempted > 0
	if ep.err != nil {
		r.fail(ep.err)
	}
}

// fail records something that broke outside any one operation.
func (r *result) fail(err error) {
	r.errs = append(r.errs, err)
	r.Correct = false
}

// episodes is how many times an untraced run sets up and measures, and
// kept is how many of them it reports over. The reference host is a small
// VM whose neighbours slow it for seconds at a time, and that only ever
// makes an episode slower; so a run keeps the episodes with the highest
// throughput and reports their medians (the p99 over their pooled
// samples). A change to the program moves every episode and so moves the
// kept ones too. setup_s is the median over all the set-ups.
const (
	episodes = 10
	kept     = 5
)

// measure is the untraced run: the end-to-end metrics.
func measure(w workload, p params, episodes, kept int) *result {
	r := newResult(endToEnd)
	type scored struct {
		thr, mid, allocs float64
		lat              []int64
	}
	var eps []scored
	var setup []float64
	for e := 0; e < episodes; e++ {
		ep := w.run(params{
			seed:    p.seed*1_000_003 + uint64(e),
			window:  p.window / time.Duration(episodes),
			workers: p.workers,
		}, nil)
		r.count(ep)
		if ep.ops == 0 {
			r.fail(fmt.Errorf("episode %d completed no operation in its window", e))
			continue
		}
		eps = append(eps, scored{
			thr:    float64(ep.ops) / ep.window.Seconds(),
			mid:    p50(ep.lat) / 1e3,
			allocs: float64(ep.mallocs) / float64(ep.ops),
			lat:    ep.lat,
		})
		setup = append(setup, ep.setup.Seconds())
	}
	sort.Slice(eps, func(i, j int) bool { return eps[i].thr > eps[j].thr })
	eps = eps[:min(kept, len(eps))]
	var thr, mid, allocs []float64
	var pooled []int64
	for _, e := range eps {
		thr, mid, allocs = append(thr, e.thr), append(mid, e.mid), append(allocs, e.allocs)
		pooled = append(pooled, e.lat...)
	}
	tail, tailOK := percentile(sortedCopy(pooled), 0.99)
	r.samples, r.tailOK = int64(len(pooled)), tailOK
	r.set("throughput_ops_s", median(thr))
	r.set("latency_p50_us", median(mid))
	r.set("latency_p99_us", tail/1e3)
	r.set("allocs_per_op", median(allocs))
	r.set("setup_s", median(setup))
	return r
}

// measureTraced is the traced run: the per-layer metrics. Half the time
// goes to the traced window, a quarter to an untraced window of the same
// workload (their throughput ratio is the tracing overhead), and the rest
// to the workload's native reference and the micro-loops.
func measureTraced(w workload, p params, outDir string) *result {
	r := newResult(perLayer)
	tp := p
	tp.window = p.window / 2
	tr := newTracer(tp.window, w.unitsPerSec, w.spansPerUnit)
	ep := w.run(tp, tr)
	r.count(ep)
	spans := linkRequests(tr.recorded())
	if err := writeTrace(outDir, w.name, spans); err != nil {
		r.fail(err)
	}

	us := func(v float64) float64 { return v / 1e3 }
	dur := durationsByName(spans)
	r.set("runtime.spawn_ns_p50", p50(dur["runtime.spawn"]))
	r.set("runtime.await_ns_p50", p50(dur["runtime.await"]))
	r.set("runtime.resume_delay_us_p50", us(p50(dur["runtime.resume_delay"])))
	r.set("runtime.resume_delay_us_p99", us(p99(dur["runtime.resume_delay"])))
	r.set("io.read_wake_us_p50", us(p50(dur["io.read_wake"])))
	r.set("io.read_wake_us_p99", us(p99(dur["io.read_wake"])))
	r.set("io.flush_us_p50", us(p50(dur["io.flush"])))
	r.set("io.reply_us_p50", us(p50(dur["io.reply"])))
	r.set("serve.handler_us_p50", us(p50(dur["serve.handler"])))
	r.set("admit.admit_ns_p50", p50(dur["admit.admit"]))
	r.set("io.accept_us_p50", us(p50(ep.acceptNS)))
	r.set("trace.spans", float64(len(spans)))
	// A request whose read_wake, handler and reply do not cover its round
	// trip exactly has non-zero self time.
	unbalanced := 0
	for i, self := range selfTimes(spans) {
		if spans[i].Name == "request" && self != 0 {
			unbalanced++
		}
	}
	r.set("trace.unbalanced_requests", float64(unbalanced))
	if d := tr.dropped.Load(); d > 0 {
		r.fail(fmt.Errorf("trace buffer full: %d spans dropped", d))
	}

	if st, ops := ep.stats, float64(ep.runOps); st != nil {
		r.set("runtime.resume_batch_mean", ratio(float64(st.ResumeBatchTasks), float64(st.ResumeBatches)))
		r.set("runtime.suspensions_per_op", ratio(float64(st.Suspensions), ops))
		r.set("runtime.slices_per_op", ratio(float64(st.TasksRun), ops))
		r.set("runtime.steal_hit_ratio", ratio(float64(st.Steals), float64(st.StealAttempts)))
		r.set("runtime.items_per_steal", ratio(float64(st.BatchItems), float64(st.Steals)))
		r.set("runtime.switches_per_op", ratio(float64(st.Switches), ops))
		r.set("runtime.max_deques_per_worker", float64(st.MaxDequesPerWorker))
	}
	r.set("runtime.mem_sys_mb", ep.memSysMB)
	r.set("runtime.gc_cycles", float64(ep.gcCycles))
	r.set("io.peak_bridges", float64(ep.peakBridges))
	r.set("bufpool.recycle_ratio", ratio(float64(ep.bufGets-ep.bufNews), float64(ep.bufGets)))
	r.set("admit.rejected_ratio", ratio(float64(ep.rejected), float64(ep.attempted)))

	up := p
	up.window = p.window / 4
	plain := w.run(up, nil)
	r.count(plain)
	r.set("trace.overhead_ratio", ratio(
		ratio(float64(plain.ops), plain.window.Seconds()),
		ratio(float64(ep.ops), ep.window.Seconds())))
	r.set("fail_ratio", ratio(float64(r.Failed), float64(r.Attempted)))

	name, v := w.baseline(p, p.window/8)
	r.set(name, v)

	pushPop, popTop, popTopBatch := dequeLoops()
	r.set("deque.push_pop_ns", pushPop)
	r.set("deque.pop_top_ns", popTop)
	r.set("deque.pop_top_batch_ns_per_item", popTopBatch)
	armStop, late := timerLoops(p.seed)
	r.set("timerwheel.arm_stop_ns", armStop)
	r.set("timerwheel.fire_late_us_p50", us(p50(late)))
	r.set("timerwheel.fire_late_us_p99", us(p99(late)))
	r.set("bufpool.get_release_ns", bufpoolLoop())
	r.set("runtime.ladder_ns_per_op", ladder(p))
	return r
}

// print writes the metrics in declaration order for people, then the
// result object on a line of its own for programs.
func (r *result) print(w workload, defs []metricDef, what string) {
	fmt.Printf("\n## %s (%s) — %s\n", w.name, what, w.why)
	for _, d := range defs {
		note := ""
		if d.Name == "latency_p99_us" {
			note = fmt.Sprintf("  (%d samples)", r.samples)
			if !r.tailOK {
				note += " under-sampled: fewer than ten beyond the percentile"
			}
		}
		fmt.Printf("%-36s %16.4f %-6s%s\n", d.Name, r.Metrics[d.Name].Value, d.Unit, note)
	}
	fmt.Printf("%-36s %16d of %d attempted\n", "failed", r.Failed, r.Attempted)
	for _, err := range r.errs {
		fmt.Printf("ERROR: %v\n", err)
	}
	line, err := json.Marshal(r)
	if err != nil {
		panic(err) // a NaN or Inf reached a metric: a bug in this program
	}
	fmt.Printf("%s\n", line)
}

// header prints the environment every number was taken in.
func header(p params) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	backend := "unknown"
	_, _ = runtime.Run(runConfig(p, runtime.LatencyHiding), func(c *runtime.Ctx) { backend = lio.BackendName(c) })
	fmt.Printf("# lhws benchmark: NumCPU=%d GOMAXPROCS=%d %s commit=%s io.backend=%s seed=%d seconds=%v\n",
		goruntime.NumCPU(), goruntime.GOMAXPROCS(0), goruntime.Version(), commit, backend, p.seed, p.window.Seconds())
	fmt.Printf("# workers P=%d; closed-loop clients over loopback: serve A=%d, serve_sparse A=%d beside I=%d idle conns; untraced runs report over the fastest %d of %d episodes\n",
		p.workers, serveClientsPerWorker*p.workers, sparseClientsPerWorker*p.workers, idleConns, kept, episodes)
}

func main() {
	name := flag.String("workload", "all", "workload to run: forkjoin, mapreduce, serve, serve_sparse or all")
	seed := flag.Uint64("seed", 1, "seed for the generated inputs")
	seconds := flag.Int("seconds", 20, "seconds one run measures")
	trace := flag.Int("trace", -1, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics; -1: both")
	outDir := flag.String("out", "out", "directory for trace-<workload>.json")
	aa := flag.Int("aa", 0, "run two sets of N untraced runs per workload and compare them against the bounds")
	flag.Parse()

	// P = min(NumCPU, 4) workers on as many threads; the generator's client
	// goroutines share them.
	procs := min(goruntime.NumCPU(), 4)
	goruntime.GOMAXPROCS(procs)
	p := params{seed: *seed, window: time.Duration(*seconds) * time.Second, workers: procs}

	var selected []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q or seconds < 1\n", *name)
		os.Exit(2)
	}
	header(p)
	if *aa > 0 {
		os.Exit(runAA(selected, *aa, *seed, *seconds))
	}
	ok := true
	for _, w := range selected {
		if *trace != 1 {
			r := measure(w, p, episodes, kept)
			r.print(w, endToEnd, "untraced")
			ok = ok && r.Correct
		}
		if *trace != 0 {
			r := measureTraced(w, p, *outDir)
			r.print(w, perLayer, "traced")
			ok = ok && r.Correct
		}
	}
	if !ok {
		os.Exit(1)
	}
}

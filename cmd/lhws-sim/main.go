// Command lhws-sim runs one workload under one scheduler and prints the
// execution statistics, optionally with an ASCII Gantt timeline or a DOT
// rendering of the computation dag.
//
// Usage:
//
//	lhws-sim -workload mapreduce -n 64 -delta 50 -fib 4 -sched lhws -p 4
//	lhws-sim -workload server -n 10 -sched ws -p 2 -gantt
//	lhws-sim -workload fib -n 10 -dot        # print the dag, don't run
package main

import (
	"flag"
	"fmt"
	"os"

	"lhws/internal/dag"
	"lhws/internal/sched"
	"lhws/internal/trace"
	"lhws/internal/workload"
)

func main() {
	var (
		wl       = flag.String("workload", "mapreduce", "workload: mapreduce, server, fib, pipeline, random")
		n        = flag.Int("n", 32, "size: elements (mapreduce), requests (server), fib input, items (pipeline), target vertices (random)")
		delta    = flag.Int64("delta", 50, "heavy-edge latency in rounds")
		fib      = flag.Int("fib", 4, "per-element fib work (mapreduce/server)")
		schedFlg = flag.String("sched", "lhws", "scheduler: lhws, lhws-opt, ws, greedy")
		p        = flag.Int("p", 4, "workers")
		seed     = flag.Uint64("seed", 1, "random seed")
		gantt    = flag.Bool("gantt", false, "print an ASCII timeline (small runs only)")
		summary  = flag.Bool("summary", false, "print per-worker action buckets")
		csv      = flag.Bool("csv", false, "print the timeline as CSV")
		dot      = flag.Bool("dot", false, "print the dag in DOT format and exit")
		load     = flag.String("load", "", "load the dag from a file (text format) instead of generating it")
		save     = flag.String("save", "", "save the generated dag to a file (text format) and exit")
	)
	flag.Parse()

	var w *workload.Workload
	var err error
	if *load != "" {
		w, err = loadWorkload(*load)
	} else {
		w, err = buildWorkload(*wl, *n, *delta, *fib, *seed)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := w.G.Encode(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%s)\n", *save, w.G)
		return
	}
	if *dot {
		fmt.Print(w.G.DOT(w.Name))
		return
	}
	fmt.Printf("workload: %s\n", w)

	opt := sched.Options{Workers: *p, Seed: *seed}
	var tl *trace.Timeline
	if *gantt || *csv || *summary {
		tl = trace.NewTimeline(*p)
		opt.Tracer = tl
	}

	var res *sched.Result
	switch *schedFlg {
	case "lhws":
		res, err = sched.RunLHWS(w.G, opt)
	case "lhws-opt":
		opt.Policy = sched.StealWorkerThenDeque
		res, err = sched.RunLHWS(w.G, opt)
	case "ws":
		res, err = sched.RunWS(w.G, opt)
	case "greedy":
		res, err = sched.RunGreedy(w.G, *p)
	default:
		fmt.Fprintf(os.Stderr, "unknown scheduler %q\n", *schedFlg)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	s := res.Stats
	fmt.Printf("scheduler: %s  P=%d  seed=%d\n", *schedFlg, *p, *seed)
	fmt.Printf("rounds:        %d\n", s.Rounds)
	fmt.Printf("work:          %d user + %d pfor\n", s.UserWork, s.PforWork)
	fmt.Printf("switches:      %d\n", s.Switches)
	fmt.Printf("steals:        %d of %d attempts\n", s.StealSuccesses, s.StealAttempts)
	fmt.Printf("blocked:       %d worker-rounds\n", s.BlockedRounds)
	fmt.Printf("max suspended: %d (U = %d)\n", s.MaxSuspended, w.G.SuspensionWidth())
	fmt.Printf("max deques/w:  %d\n", s.MaxDequesPerWorker)
	if s.EnablingSpan > 0 {
		fmt.Printf("enabling span: %d (S = %d)\n", s.EnablingSpan, w.G.Span())
	}
	if tl != nil {
		if *gantt {
			fmt.Printf("\ntimeline (W=work F=pfor C=switch S=steal s=miss B=blocked .=idle):\n%s", tl.Gantt(160))
		}
		if *summary {
			fmt.Printf("\n%s", tl.Summary())
		}
		if *csv {
			fmt.Print(tl.CSV())
		}
		fmt.Printf("mean utilization: %.1f%%\n", 100*tl.MeanUtilization())
	}
}

func loadWorkload(path string) (*workload.Workload, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, err := dag.Decode(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &workload.Workload{Name: path, G: g, AnalyticU: -1}, nil
}

func buildWorkload(kind string, n int, delta int64, fib int, seed uint64) (*workload.Workload, error) {
	switch kind {
	case "mapreduce":
		return workload.MapReduce(workload.MapReduceConfig{N: n, Delta: delta, FibWork: fib}), nil
	case "server":
		return workload.Server(workload.ServerConfig{Requests: n, Delta: delta, FibWork: fib}), nil
	case "fib":
		return workload.Fib(n), nil
	case "pipeline":
		return workload.Pipeline(workload.PipelineConfig{Items: n, Stages: 3, StageWork: 5, Delta: delta}), nil
	case "random":
		return workload.Random(workload.RandomConfig{Seed: seed, TargetVertices: n, PHeavy: 0.3, MaxDelta: delta}), nil
	case "figure1":
		b := dag.NewBuilder()
		fork := b.Vertex("fork")
		mul := b.Vertex("y=6*7")
		input := b.Vertex("input")
		double := b.Vertex("x=2*x")
		add := b.Vertex("x+y")
		b.Light(fork, mul)
		b.Light(fork, input)
		b.Heavy(input, double, delta)
		b.Light(mul, add)
		b.Light(double, add)
		return &workload.Workload{Name: "figure1", G: b.MustGraph(), AnalyticU: 1}, nil
	default:
		return nil, fmt.Errorf("unknown workload %q (want mapreduce, server, fib, pipeline, random, figure1)", kind)
	}
}

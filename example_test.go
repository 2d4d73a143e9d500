package lhws_test

import (
	"fmt"
	"time"

	"lhws"
)

// ExampleRunLHWS schedules the paper's Figure-1 dag — a fork whose right
// branch waits on user input — under the latency-hiding scheduler and the
// blocking baseline. The input's latency is on the critical path, so both
// must wait it out: on this tiny dag the round counts are similar.
func ExampleRunLHWS() {
	b := lhws.NewDAGBuilder()
	fork := b.Vertex("fork")
	mul := b.Vertex("y=6*7")   // left child: the continuation
	input := b.Vertex("input") // right child: spawned thread
	double := b.Vertex("x=2*x")
	add := b.Vertex("x+y")
	b.Light(fork, mul)
	b.Light(fork, input)
	b.Heavy(input, double, 100) // reading input takes 100 steps
	b.Light(mul, add)
	b.Light(double, add)
	g := b.MustGraph()

	fmt.Println(g.Summary())
	fmt.Println("critical path:", g.CriticalPath())
	for _, p := range []int{1, 2} {
		lh, err := lhws.RunLHWS(g, lhws.SchedOptions{Workers: p, Seed: 1})
		if err != nil {
			panic(err)
		}
		ws, err := lhws.RunWS(g, lhws.SchedOptions{Workers: p, Seed: 1})
		if err != nil {
			panic(err)
		}
		fmt.Printf("P=%d: latency-hiding %d rounds, blocking %d rounds\n", p, lh.Stats.Rounds, ws.Stats.Rounds)
	}
	// Output:
	// W=5 S=103 U=1 heavy=1 parallelism=0.0
	// critical path: [0 2 3 4]
	// P=1: latency-hiding 106 rounds, blocking 104 rounds
	// P=2: latency-hiding 105 rounds, blocking 103 rounds
}

// ExampleRunWS is the §5 distributed map-reduce in the simulator: 64
// remote fetches, each feeding a small computation. Latency hiding
// overlaps the fetches; blocking work stealing waits them out one worker
// at a time. Speedups are over single-worker WS.
func ExampleRunWS() {
	w := lhws.MapReduce(lhws.MapReduceConfig{N: 64, Delta: 100, FibWork: 4})
	fmt.Println(w)
	base, err := lhws.RunWS(w.G, lhws.SchedOptions{Workers: 1, Seed: 1})
	if err != nil {
		panic(err)
	}
	for _, p := range []int{1, 2, 4} {
		lh, err := lhws.RunLHWS(w.G, lhws.SchedOptions{Workers: p, Seed: 1})
		if err != nil {
			panic(err)
		}
		ws, err := lhws.RunWS(w.G, lhws.SchedOptions{Workers: p, Seed: 1})
		if err != nil {
			panic(err)
		}
		fmt.Printf("P=%d: LHWS %4d rounds (speedup %5.2f), WS %4d rounds (speedup %4.2f)\n",
			p, lh.Stats.Rounds, lh.Speedup(base.Stats.Rounds),
			ws.Stats.Rounds, ws.Speedup(base.Stats.Rounds))
	}
	// Output:
	// mapreduce(n=64,delta=100,fib=4): W=1022 S=119 U=64 heavy=64 parallelism=8.6
	// P=1: LHWS 1105 rounds (speedup  6.66), WS 7358 rounds (speedup 1.00)
	// P=2: LHWS  564 rounds (speedup 13.05), WS 3680 rounds (speedup 2.00)
	// P=4: LHWS  344 rounds (speedup 21.39), WS 1852 rounds (speedup 3.97)
}

// ExampleGraph_SuspensionWidth computes the §5 suspension widths: n for
// the distributed map-reduce, 1 for the server.
func ExampleGraph_SuspensionWidth() {
	mr := lhws.MapReduce(lhws.MapReduceConfig{N: 16, Delta: 50, FibWork: 3})
	srv := lhws.Server(lhws.ServerConfig{Requests: 16, Delta: 50, FibWork: 3})
	fmt.Println("map-reduce U:", mr.G.SuspensionWidth())
	fmt.Println("server U:", srv.G.SuspensionWidth())
	// Output:
	// map-reduce U: 16
	// server U: 1
}

// ExampleRunGreedy demonstrates the Theorem-1 guarantee: greedy schedules
// never exceed W/P + S rounds.
func ExampleRunGreedy() {
	g := lhws.Fib(10).G
	res, err := lhws.RunGreedy(g, 4)
	if err != nil {
		panic(err)
	}
	fmt.Println("within bound:", res.Stats.Rounds <= lhws.GreedyBound(g, 4))
	// Output:
	// within bound: true
}

// ExampleRunTasks runs real code on the latency-hiding runtime: the
// spawned fetch suspends its task, not its worker.
func ExampleRunTasks() {
	_, err := lhws.RunTasks(lhws.RuntimeConfig{Workers: 4, Mode: lhws.LatencyHiding},
		func(c *lhws.Ctx) {
			right := lhws.SpawnValue(c, func(cc *lhws.Ctx) int {
				cc.Latency(time.Millisecond) // remote fetch; worker keeps busy
				return 2 * 21
			})
			left := 6 * 7
			fmt.Println(left + right.Await(c))
		})
	if err != nil {
		panic(err)
	}
	// Output:
	// 84
}

// fetchMapReduce is the paper's Figure 8: split the index range, fork the
// right half, fetch element i from a remote server (δ of wall-clock
// latency) and map it at the leaves, and add on the way up.
func fetchMapReduce(c *lhws.Ctx, lo, hi int) int {
	if hi-lo == 1 {
		c.Latency(time.Millisecond) // fetch element lo
		return lo * lo
	}
	mid := (lo + hi) / 2
	right := lhws.SpawnValue(c, func(cc *lhws.Ctx) int { return fetchMapReduce(cc, mid, hi) })
	left := fetchMapReduce(c, lo, mid)
	return left + right.Await(c)
}

// ExampleSpawnValue runs Figure 8 on the real runtime in both modes: the
// same answer and the same tasks, but the blocking runtime holds a worker
// through every fetch while the latency-hiding one keeps them all in
// flight at once.
func ExampleSpawnValue() {
	for _, mode := range []lhws.RuntimeMode{lhws.Blocking, lhws.LatencyHiding} {
		var sum int
		st, err := lhws.RunTasks(lhws.RuntimeConfig{Workers: 4, Mode: mode}, func(c *lhws.Ctx) {
			sum = fetchMapReduce(c, 0, 64)
		})
		if err != nil {
			panic(err)
		}
		fmt.Printf("%v: sum %d, %d tasks\n", mode, sum, st.TasksSpawned)
	}
	// Output:
	// blocking: sum 85344, 64 tasks
	// latency-hiding: sum 85344, 64 tasks
}

// ExampleParallelMapReduce is §5's distributed map-reduce as one call.
func ExampleParallelMapReduce() {
	var sum int
	_, err := lhws.RunTasks(lhws.RuntimeConfig{Workers: 4, Mode: lhws.LatencyHiding}, func(c *lhws.Ctx) {
		sum = lhws.ParallelMapReduce(c, 0, 100, 0,
			func(cc *lhws.Ctx, i int) int {
				cc.Latency(1e5) // fetch element i
				return i
			},
			func(a, b int) int { return a + b })
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(sum)
	// Output:
	// 4950
}

// ExampleNewChan is a three-stage streaming pipeline — fetch, enrich via a
// remote service, aggregate — joined by bounded channels, with a latency
// per item in every stage. A Recv on an empty channel suspends the task,
// never the worker, so the three stages' waits overlap.
func ExampleNewChan() {
	const items = 20
	var total int
	_, err := lhws.RunTasks(lhws.RuntimeConfig{Workers: 2, Mode: lhws.LatencyHiding}, func(c *lhws.Ctx) {
		fetched := lhws.NewChan[int](4) // bounded: backpressure
		enriched := lhws.NewChan[int](4)
		fetcher := c.Spawn(func(cc *lhws.Ctx) {
			for i := 0; i < items; i++ {
				cc.Latency(time.Millisecond) // read from the upstream source
				fetched.Send(cc, i)
			}
		})
		enricher := c.Spawn(func(cc *lhws.Ctx) {
			for i := 0; i < items; i++ {
				v := fetched.Recv(cc)
				cc.Latency(time.Millisecond) // call the enrichment service
				enriched.Send(cc, 3*v+1)
			}
		})
		for i := 0; i < items; i++ { // the aggregate stage is the root task
			total += enriched.Recv(c)
		}
		fetcher.Await(c)
		enricher.Await(c)
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("total:", total)
	// Output:
	// total: 590
}

// ExampleIOListen is an echo server on real sockets with an in-process
// client. Every Accept, Read and Write that has to wait suspends the
// calling task and the worker moves on (a write the socket takes at once
// just returns).
func ExampleIOListen() {
	_, err := lhws.RunTasks(lhws.RuntimeConfig{Workers: 4, Mode: lhws.LatencyHiding},
		func(c *lhws.Ctx) {
			l, err := lhws.IOListen(c, "tcp", "127.0.0.1:0")
			if err != nil {
				panic(err)
			}
			server := c.Spawn(func(c *lhws.Ctx) {
				for {
					cn, err := l.Accept(c) // suspends the task, not the worker
					if err != nil {
						return
					}
					c.Spawn(func(h *lhws.Ctx) { // one echo task per connection
						defer cn.Close()
						buf := make([]byte, 1024)
						for {
							n, err := cn.Read(h, buf)
							if err != nil {
								return
							}
							if _, err := cn.Write(h, buf[:n]); err != nil {
								return
							}
						}
					})
				}
			})

			cn, err := lhws.IODial(c, "tcp", l.Addr().String())
			if err != nil {
				panic(err)
			}
			for _, msg := range []string{"hello", "world"} {
				if _, err := cn.Write(c, []byte(msg)); err != nil {
					panic(err)
				}
				reply := make([]byte, len(msg))
				for off := 0; off < len(reply); {
					n, err := cn.Read(c, reply[off:])
					if err != nil {
						panic(err)
					}
					off += n
				}
				fmt.Println(string(reply))
			}
			cn.Close()
			l.Close()
			server.Await(c)
		})
	if err != nil {
		panic(err)
	}
	// Output:
	// hello
	// world
}

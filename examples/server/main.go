// The "server" example (paper §5, Figure 10) on real sockets: requests
// arrive over TCP, the accept loop awaits them one at a time (each
// arrival a genuine heavy edge), forks a handler per request, and the
// handlers answer on their own connections. Only one Accept is
// outstanding at any moment, so the dag's suspension width is 1 — the
// paper's minimal-U example — yet the handlers run in parallel with the
// waiting.
//
// On top of the Figure 10 shape, the server runs the full overload
// stack (DESIGN.md §11). Each request runs under a per-request deadline
// (Ctx.WithDeadline), which also stamps the subtree with a latency
// target: handlers whose simulated backend is slow are canceled
// mid-flight — by the deadline timer (lhws.ErrDeadline) or, with
// ShedBlownTargets, by a thief refusing to pull workers into a subtree
// whose target has already passed (lhws.ErrTargetMissed) — and answer
// with a typed timeout/shed reply while fast requests complete
// normally. An admission controller fronts the handlers: past its
// saturation threshold requests are rejected fast with a typed reply
// instead of queueing into a blown deadline, and in latency-hiding mode
// the same controller gates the accept loop, parking the acceptor (a
// task, not a worker) so excess connections wait in the kernel backlog.
// A graceful drain closes intake at the end and accounts for every
// admitted request.
//
// The clients are plain goroutines dialing over loopback: the external
// world, deliberately outside the task runtime, so that the comparison
// below measures only how the server schedules its own waiting.
//
//	go run ./examples/server [-requests 20] [-arrival 4ms] [-workers 1]
//	    [-deadline 25ms] [-slowevery 5] [-inflight 8] [-rejectat 16]
package main

import (
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"lhws"
)

// Wire protocol: a request is a 4-byte big-endian id; a reply is one
// status byte followed by an 8-byte value (zero unless statusOK).
const (
	reqBytes       = 4
	replyBytes     = 1 + 8
	statusOK       = 0
	statusTimeout  = 1
	statusRejected = 2
	statusShed     = 3
)

// compute is f(x): per-request computation, sized comparable to the
// arrival spacing so that hiding the waits matters even on one worker.
func compute(x int) int64 {
	acc := int64(x)
	for i := 0; i < 3_000_000; i++ {
		acc += int64(i) ^ (acc >> 2)
	}
	return acc%1000003 + int64(x)
}

// handle serves one request: a backend fetch (latency-incurring, staged
// so a deadline can interrupt between stages even in blocking mode)
// followed by the f(x) compute. Slow requests model a degraded backend:
// their staged fetch far exceeds any reasonable deadline.
func handle(cc *lhws.Ctx, x int, slow bool) int64 {
	stages, stage := 1, time.Millisecond
	if slow {
		stages, stage = 4, 15*time.Millisecond
	}
	for s := 0; s < stages; s++ {
		cc.Latency(stage) // checkpoint: a fired deadline unwinds here
	}
	return compute(x)
}

// tally aggregates per-request outcomes across handler tasks.
type tally struct {
	sum      atomic.Int64
	ok       atomic.Int64
	timedOut atomic.Int64
	rejected atomic.Int64
	shed     atomic.Int64
	sent     atomic.Int64 // reply bytes flushed to clients
}

// serveConn answers the single request carried by cn: read x, take the
// admission decision, run the handler under what remains of the
// per-request deadline, and reply typed — result, timeout, shed, or
// rejected. The deadline clock started at Accept, so time a queued
// handler spends waiting for a worker counts against it — that is
// exactly the cost the blocking mode pays. The reply is written from
// the handler's own ctx, not the deadline scope, so a canceled request
// still gets its answer.
func serveConn(h *lhws.Ctx, cn *lhws.IOConn, ctl *lhws.AdmitController,
	arrived time.Time, slowEvery int, deadline time.Duration, tl *tally) {
	defer cn.Close()
	var req [reqBytes]byte
	for off := 0; off < len(req); {
		n, err := cn.Read(h, req[off:])
		off += n
		if err != nil {
			log.Fatalf("read request: %v", err)
		}
	}
	x := int(binary.BigEndian.Uint32(req[:]))
	slow := slowEvery > 0 && x%slowEvery == slowEvery-1

	// Replies go out vectored: the status byte and the value field are
	// queued as separate fragments and flushed as one writev, the same
	// frame-assembly shape a real server uses for header + body.
	var reply [replyBytes]byte
	sendReply := func() {
		cn.QueueWrite(reply[:1])
		cn.QueueWrite(reply[1:])
		n, werr := cn.Flush(h)
		if werr != nil {
			log.Fatalf("write reply %d: %v", x, werr)
		}
		tl.sent.Add(int64(n))
	}
	tk, aerr := ctl.Admit(h)
	if aerr != nil {
		// Reject fast: one frame of work instead of a blown deadline.
		reply[0] = statusRejected
		tl.rejected.Add(1)
		sendReply()
		return
	}
	defer tk.Done()

	hc, cancel := h.WithDeadline(deadline - time.Since(arrived))
	defer cancel()
	tk.Bind(cancel) // a drain may shed this request through its scope
	res := lhws.SpawnValue(hc, func(cc *lhws.Ctx) int64 {
		return handle(cc, x, slow)
	})
	v, err := res.AwaitErr(h) // join via the handler's own ctx, not hc

	switch {
	case err == nil:
		reply[0] = statusOK
		binary.BigEndian.PutUint64(reply[1:], uint64(v))
		tl.sum.Add(v)
		tl.ok.Add(1)
	case errors.Is(err, lhws.ErrDeadline):
		reply[0] = statusTimeout
		tl.timedOut.Add(1)
	case errors.Is(err, lhws.ErrTargetMissed), errors.Is(err, lhws.ErrCanceled):
		// Shed: a thief refused the blown-target subtree, or a drain
		// canceled the bound scope.
		reply[0] = statusShed
		tl.shed.Add(1)
	default:
		log.Fatalf("request %d: unexpected error: %v", x, err)
	}
	sendReply()
}

// serve is Figure 10 with a real socket as the input stream: accept a
// connection (the latency-incurring getInput); fork its handler (the
// spawned thread) while the accept spine itself is the continuation —
// the dag of Figure 9, where the Accept spine carries on and each f(x)
// hangs off it. After the last arrival the spine joins every handler
// and drains the admission controller.
func serve(c *lhws.Ctx, l *lhws.IOListener, ctl *lhws.AdmitController,
	total, slowEvery int, deadline time.Duration, tl *tally) *lhws.DrainReport {
	var futs []*lhws.Future
	for i := 0; i < total; i++ {
		cn, err := l.Accept(c)
		if err != nil {
			log.Fatalf("accept: %v", err)
		}
		arrived := time.Now()
		futs = append(futs, c.Spawn(func(h *lhws.Ctx) {
			serveConn(h, cn, ctl, arrived, slowEvery, deadline, tl)
		}))
	}
	for _, f := range futs {
		f.Await(c)
	}
	return ctl.Drain(c, deadline)
}

// client is one plain-goroutine user: dial, send one request, read the
// reply. Returns the status byte.
func client(addr string, id int) (byte, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return 0, err
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(30 * time.Second))
	var req [reqBytes]byte
	binary.BigEndian.PutUint32(req[:], uint32(id))
	if _, err := nc.Write(req[:]); err != nil {
		return 0, err
	}
	var reply [replyBytes]byte
	for off := 0; off < len(reply); {
		n, err := nc.Read(reply[off:])
		off += n
		if err != nil {
			return 0, err
		}
	}
	return reply[0], nil
}

func main() {
	var (
		requests  = flag.Int("requests", 20, "requests before shutdown")
		arrival   = flag.Duration("arrival", 4*time.Millisecond, "spacing between client arrivals")
		workers   = flag.Int("workers", 1, "worker goroutines")
		deadline  = flag.Duration("deadline", 25*time.Millisecond, "per-request deadline (and latency target)")
		slowEvery = flag.Int("slowevery", 5, "every Nth request hits a slow backend (0 = never)")
		inflight  = flag.Int("inflight", 8, "admission credit pool (0 = uncapped)")
		rejectAt  = flag.Float64("rejectat", 16, "saturation at which admission rejects fast (0 = never)")
	)
	flag.Parse()
	if goruntime.GOMAXPROCS(0) < *workers {
		goruntime.GOMAXPROCS(*workers)
	}

	slowCount := 0
	if *slowEvery > 0 {
		slowCount = *requests / *slowEvery
	}
	fmt.Printf("server: %d TCP requests arriving every %v, %d worker(s)\n", *requests, *arrival, *workers)
	fmt.Printf("per-request deadline %v; %d request(s) hit a slow backend and should not complete on time\n\n",
		*deadline, slowCount)

	for _, mode := range []lhws.RuntimeMode{lhws.Blocking, lhws.LatencyHiding} {
		var tl tally
		var clientDegraded atomic.Int64

		addrCh := make(chan string, 1)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { // the outside world: staggered client arrivals
			defer wg.Done()
			addr := <-addrCh
			var cwg sync.WaitGroup
			for i := 0; i < *requests; i++ {
				cwg.Add(1)
				go func(id int) {
					defer cwg.Done()
					status, err := client(addr, id)
					if err != nil {
						log.Fatalf("client %d: %v", id, err)
					}
					if status != statusOK {
						clientDegraded.Add(1)
					}
				}(i)
				time.Sleep(*arrival)
			}
			cwg.Wait()
		}()

		var drain *lhws.DrainReport
		cfg := lhws.RuntimeConfig{Workers: *workers, Mode: mode, ShedBlownTargets: true}
		var ms0 goruntime.MemStats
		goruntime.ReadMemStats(&ms0)
		st, err := lhws.RunTasks(cfg, func(c *lhws.Ctx) {
			l, lerr := lhws.IOListen(c, "tcp", "127.0.0.1:0")
			if lerr != nil {
				log.Fatalf("listen: %v", lerr)
			}
			defer l.Close()
			ctl := lhws.NewAdmitController(lhws.AdmitConfig{
				MaxInflight: *inflight,
				RejectAt:    *rejectAt,
			})
			if mode == lhws.LatencyHiding {
				// Accept-gate backpressure parks the accepting *task*;
				// in blocking mode that would park the worker itself,
				// so the gate stays latency-hiding-only.
				l.SetGate(ctl)
			}
			addrCh <- l.Addr().String()
			drain = serve(c, l, ctl, *requests, *slowEvery, *deadline, &tl)
		})
		if err != nil {
			log.Fatal(err)
		}
		var ms1 goruntime.MemStats
		goruntime.ReadMemStats(&ms1)
		wg.Wait()

		ok, timedOut := tl.ok.Load(), tl.timedOut.Load()
		rejected, shed := tl.rejected.Load(), tl.shed.Load()
		fmt.Printf("%-15s wall %-10v ok %-3d timeout %-3d rejected %-3d shed %-3d late %-3d target-cancels %-3d sum %d\n",
			mode.String()+":", st.Wall.Round(time.Millisecond), ok, timedOut, rejected, shed,
			st.TasksLate, st.TargetCancels, tl.sum.Load())
		fmt.Printf("%-15s data plane: %.1f KB/s out (vectored replies), %.0f allocs/req\n",
			"", float64(tl.sent.Load())/st.Wall.Seconds()/1024,
			float64(ms1.Mallocs-ms0.Mallocs)/float64(*requests))
		fmt.Printf("%-15s drain: completed %d, canceled %d, remaining %d in %v\n",
			"", drain.Completed, drain.Canceled, drain.Remaining, drain.Waited.Round(time.Millisecond))
		if st.Steals > 0 {
			fmt.Printf("%-15s steals: %d moving %d items (%.2f items/steal)\n",
				"", st.Steals, st.BatchItems, float64(st.BatchItems)/float64(st.Steals))
		}
		if ok+timedOut+rejected+shed != int64(*requests) {
			log.Fatalf("lost requests: %d ok + %d timeout + %d rejected + %d shed != %d",
				ok, timedOut, rejected, shed, *requests)
		}
		if clientDegraded.Load() != timedOut+rejected+shed {
			log.Fatalf("client-side degraded replies %d disagree with server-side %d",
				clientDegraded.Load(), timedOut+rejected+shed)
		}
		if drain.Remaining != 0 {
			log.Fatalf("drain left %d requests in flight", drain.Remaining)
		}
	}
	fmt.Println("\nThe blocking server holds its worker inside every pending Accept,")
	fmt.Println("Read and backend wait, so it alternates wait, handle, wait, handle —")
	fmt.Println("paying arrival latency plus compute in sequence. The latency-hiding")
	fmt.Println("server suspends the task instead and computes handlers during the")
	fmt.Println("waits (at most two deques per worker with U = 1, Lemma 7). Either")
	fmt.Println("way every request ends typed — on time, timed out, shed, or rejected")
	fmt.Println("fast at admission — and the drain accounts for all admitted work;")
	fmt.Println("the deadline clock starts at Accept, so a slow backend surfaces as")
	fmt.Println("a wire reply instead of stalling the batch.")
}

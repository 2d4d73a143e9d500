package io

import (
	"bytes"
	"testing"
	"time"

	"lhws/internal/faultpoint"
	"lhws/internal/runtime"
)

// The io chaos scenarios replay the runtime chaos suite's discipline
// (seed matrix, bounded runs, checkable result) against real sockets
// with faults injected at the PollComplete point — the delivery of an
// external I/O completion to a suspended task. Delay and Dup are
// recoverable by construction (the completion still arrives, once
// effective), so these scenarios demand full correctness, exercising
// the wheel-deferred delivery and stale-epoch-discard paths under
// genuine socket timing instead of the simulated waits the runtime
// suite uses.

var ioChaosSeeds = []uint64{1, 7, 42, 99, 4242}

const (
	ioChaosClients = 6
	ioChaosRounds  = 4
	ioChaosFrame   = 8
)

// ioChaosWant is the checkable result: every client echoes rounds
// frames of byte value id+1, so the byte sum over all echoed frames is
// fixed.
const ioChaosWant = ioChaosFrame * ioChaosRounds *
	(ioChaosClients * (ioChaosClients + 1) / 2)

// ioChaosBulk is one write far larger than the loopback socket buffers.
// A frame-sized write to a ready socket completes inline and never meets
// the PollComplete point; this one goes to a peer that reads nothing for
// the first 10 ms, so its remainder parks a waiter and its completion is
// delayed or duplicated like any read's.
var ioChaosBulk = bytes.Repeat([]byte("chaos-bulk-write"), 8<<20/16)

// runIOChaos runs ioChaosWorkload under cfg and checks that the stalled
// peer received the bulk write whole.
func runIOChaos(t *testing.T, cfg runtime.Config) (got int, st *runtime.Stats, err error) {
	t.Helper()
	p := newGatedPeer(t)
	st, err = runtime.Run(cfg, func(c *runtime.Ctx) { got = ioChaosWorkload(t, c, p) })
	if err == nil && !bytes.Equal(p.wait(t), ioChaosBulk) {
		t.Errorf("seed %d: stalled peer did not receive the bulk write intact", cfg.Seed)
	}
	return got, st, err
}

// ioChaosWorkload runs the echo shape, beside one bulk write to the
// stalled peer p, and returns the sum of all bytes the echo clients read
// back.
func ioChaosWorkload(t *testing.T, c *runtime.Ctx, p *gatedPeer) int {
	l, err := Listen(c, "tcp", "127.0.0.1:0")
	if err != nil {
		t.Errorf("listen: %v", err)
		return -1
	}
	addr := l.Addr().String()
	srv := c.Spawn(func(cc *runtime.Ctx) { echoServe(cc, l, ioChaosFrame) })
	futs := make([]*runtime.Future, ioChaosClients)
	sums := make([]int, ioChaosClients)
	for i := 0; i < ioChaosClients; i++ {
		i := i
		futs[i] = c.Spawn(func(cc *runtime.Ctx) {
			cn, derr := Dial(cc, "tcp", addr)
			if derr != nil {
				t.Errorf("client %d dial: %v", i, derr)
				return
			}
			defer cn.Close()
			out := bytes.Repeat([]byte{byte(i + 1)}, ioChaosFrame)
			in := make([]byte, ioChaosFrame)
			for r := 0; r < ioChaosRounds; r++ {
				if _, werr := cn.Write(cc, out); werr != nil {
					t.Errorf("client %d write: %v", i, werr)
					return
				}
				if rerr := readFull(cc, cn, in); rerr != nil {
					t.Errorf("client %d read: %v", i, rerr)
					return
				}
				if !bytes.Equal(in, out) {
					t.Errorf("client %d round %d: echo mismatch", i, r)
					return
				}
				for _, b := range in {
					sums[i] += int(b)
				}
			}
		})
	}
	futs = append(futs, c.Spawn(func(cc *runtime.Ctx) {
		cn, derr := Dial(cc, "tcp", p.addr)
		if derr != nil {
			t.Errorf("bulk dial: %v", derr)
			return
		}
		defer cn.Close()
		time.AfterFunc(10*time.Millisecond, p.release)
		if n, werr := cn.Write(cc, ioChaosBulk); n != len(ioChaosBulk) || werr != nil {
			t.Errorf("bulk write = %d, %v; want %d, nil", n, werr, len(ioChaosBulk))
		}
	}))
	for _, f := range futs {
		f.Await(c)
	}
	l.Close()
	srv.Await(c)
	total := 0
	for _, s := range sums {
		total += s
	}
	return total
}

// ioChaosConfig bounds every scenario. The stall timeout is looser than
// the runtime suite's 300ms: injected completion delays stack on real
// socket latency, and a legitimately pending Accept carries no pending
// wake, so the watchdog needs headroom above the injected jitter.
func ioChaosConfig(seed uint64, inj *faultpoint.Injector) runtime.Config {
	return runtime.Config{
		Workers:      4,
		Mode:         runtime.LatencyHiding,
		Seed:         seed,
		Deadline:     30 * time.Second,
		StallTimeout: 2 * time.Second,
		Faults:       inj,
	}
}

func ioMustBeCorrect(t *testing.T, seed uint64, inj *faultpoint.Injector) {
	t.Helper()
	got, st, err := runIOChaos(t, ioChaosConfig(seed, inj))
	if err != nil {
		t.Fatalf("seed %d: Run: %v (faults: %s)", seed, err, inj.Summary())
	}
	if got != ioChaosWant {
		t.Fatalf("seed %d: byte sum = %d, want %d (faults: %s)",
			seed, got, ioChaosWant, inj.Summary())
	}
	if st.Stalled {
		t.Fatalf("seed %d: watchdog fired on a recoverable fault (faults: %s)",
			seed, inj.Summary())
	}
	if inj.Fired(faultpoint.PollComplete) == 0 {
		t.Fatalf("seed %d: scenario never fired a PollComplete fault (evaluated %d)",
			seed, inj.Evaluated(faultpoint.PollComplete))
	}
}

// TestChaosIOPollDelay defers every I/O completion by a few
// milliseconds through the timer wheel: deliveries arrive late and out
// of order relative to the sockets' actual readiness, but nothing is
// lost, so the echo result must be exact.
func TestChaosIOPollDelay(t *testing.T) {
	for _, seed := range ioChaosSeeds {
		inj := faultpoint.New(seed).Set(faultpoint.PollComplete,
			faultpoint.Rule{Action: faultpoint.Delay, Rate: 1.0, Delay: 3 * time.Millisecond})
		ioMustBeCorrect(t, seed, inj)
	}
}

// TestChaosIOPollDup delivers half of all I/O completions twice, the
// duplicate a beat later: the second delivery carries a stale epoch and
// must be discarded by the wake claim, never resuming a task that has
// already moved on to its next suspension.
func TestChaosIOPollDup(t *testing.T) {
	for _, seed := range ioChaosSeeds {
		inj := faultpoint.New(seed).Set(faultpoint.PollComplete,
			faultpoint.Rule{Action: faultpoint.Dup, Rate: 0.5, Delay: 2 * time.Millisecond})
		ioMustBeCorrect(t, seed, inj)
	}
}

package runtime

import (
	"errors"
	goruntime "runtime"
	"testing"
	"time"

	"lhws/internal/faultpoint"
)

// chaosSeeds are the fixed seeds the chaos suite replays (make chaos).
// 99 and 4242 were added with the pooled hot path / pfor bulk injection
// so the recycling and batch-split paths see more victim/injection
// interleavings.
var chaosSeeds = []uint64{1, 7, 42, 99, 4242}

// chaosTasks and chaosWant parameterize the chaos workload: a fork-join
// producer/consumer computation exercising every suspension path (Latency,
// channel send with backpressure, channel receive, Await) whose result is
// checkable.
const chaosTasks = 24

const chaosWant = chaosTasks * (chaosTasks + 1) / 2

// chaosWorkload spawns chaosTasks producers that hide latency and push
// through a bounded channel into a consumer; the root joins on the
// consumer's sum. Returns the sum so callers can verify correctness.
func chaosWorkload(c *Ctx) int {
	ch := NewChan[int](4)
	total := SpawnValue(c, func(cc *Ctx) int {
		sum := 0
		for i := 0; i < chaosTasks; i++ {
			sum += ch.Recv(cc)
		}
		return sum
	})
	for i := 0; i < chaosTasks; i++ {
		i := i
		c.Spawn(func(cc *Ctx) {
			cc.Latency(time.Millisecond)
			ch.Send(cc, i+1)
		})
	}
	return total.Await(c)
}

// chaosConfig bounds every chaos run: a run-wide deadline and the stall
// watchdog guarantee termination no matter which wakeups the injector
// loses, so a scenario either computes the right answer or returns a
// typed error — never hangs.
func chaosConfig(seed uint64, inj *faultpoint.Injector) Config {
	return Config{
		Workers:      4,
		Mode:         LatencyHiding,
		Seed:         seed,
		Deadline:     30 * time.Second,
		StallTimeout: 300 * time.Millisecond,
		Faults:       inj,
	}
}

// mustBeCorrect asserts the scenario cannot fail: the injected fault only
// slows the schedule down (failed steals, delays, duplicate wakeups).
func mustBeCorrect(t *testing.T, seed uint64, inj *faultpoint.Injector) {
	t.Helper()
	var got int
	st, err := Run(chaosConfig(seed, inj), func(c *Ctx) { got = chaosWorkload(c) })
	if err != nil {
		t.Fatalf("seed %d: Run: %v (faults: %s)", seed, err, inj.Summary())
	}
	if got != chaosWant {
		t.Fatalf("seed %d: sum = %d, want %d (faults: %s)", seed, got, chaosWant, inj.Summary())
	}
	if st.Stalled {
		t.Fatalf("seed %d: watchdog fired on a recoverable fault", seed)
	}
}

// correctOrTyped asserts the run either computes the right answer or
// fails with one of the allowed typed errors — the lost-wakeup scenarios,
// where the watchdog or deadline converts a would-be hang into a
// diagnostic.
func correctOrTyped(t *testing.T, seed uint64, inj *faultpoint.Injector, allowed ...error) {
	t.Helper()
	var got int
	_, err := Run(chaosConfig(seed, inj), func(c *Ctx) { got = chaosWorkload(c) })
	if err == nil {
		if got != chaosWant {
			t.Fatalf("seed %d: err nil but sum = %d, want %d (faults: %s)",
				seed, got, chaosWant, inj.Summary())
		}
		return
	}
	for _, a := range allowed {
		if errors.Is(err, a) {
			return
		}
	}
	t.Fatalf("seed %d: Run err = %v, want nil or one of %v (faults: %s)",
		seed, err, allowed, inj.Summary())
}

// TestChaosStealFail fails 10% of steal attempts: pure slowdown, the
// result must be exact.
func TestChaosStealFail(t *testing.T) {
	for _, seed := range chaosSeeds {
		inj := faultpoint.New(seed).Set(faultpoint.Steal, faultpoint.Rule{
			Action: faultpoint.Fail, Rate: 0.10,
		})
		mustBeCorrect(t, seed, inj)
	}
}

// TestChaosResumeDelay delays 20% of resume injections by 2ms: wakeups
// arrive late but are never lost, so the result must be exact and the
// watchdog must stay quiet (delayed wakes count as pending progress).
func TestChaosResumeDelay(t *testing.T) {
	for _, seed := range chaosSeeds {
		inj := faultpoint.New(seed).Set(faultpoint.ResumeInject, faultpoint.Rule{
			Action: faultpoint.Delay, Rate: 0.20, Delay: 2 * time.Millisecond,
		})
		mustBeCorrect(t, seed, inj)
	}
}

// TestChaosResumeDup duplicates 20% of resume injections 2ms apart: the
// epoch claim must discard every duplicate, so the result is exact.
func TestChaosResumeDup(t *testing.T) {
	for _, seed := range chaosSeeds {
		inj := faultpoint.New(seed).Set(faultpoint.ResumeInject, faultpoint.Rule{
			Action: faultpoint.Dup, Rate: 0.20, Delay: 2 * time.Millisecond,
		})
		mustBeCorrect(t, seed, inj)
	}
}

// TestChaosChanDup duplicates 20% of channel wakeups: a duplicated
// handoff must not deliver a value twice or re-inject a task twice.
func TestChaosChanDup(t *testing.T) {
	for _, seed := range chaosSeeds {
		inj := faultpoint.New(seed).Set(faultpoint.ChanWakeup, faultpoint.Rule{
			Action: faultpoint.Dup, Rate: 0.20, Delay: time.Millisecond,
		})
		mustBeCorrect(t, seed, inj)
	}
}

// TestChaosSuspendDelay jitters 10% of suspension entries by 2ms,
// widening the suspend/wakeup race window the epoch claim closes.
func TestChaosSuspendDelay(t *testing.T) {
	for _, seed := range chaosSeeds {
		inj := faultpoint.New(seed).Set(faultpoint.Suspend, faultpoint.Rule{
			Action: faultpoint.Delay, Rate: 0.10, Delay: 2 * time.Millisecond,
		})
		mustBeCorrect(t, seed, inj)
	}
}

// TestChaosWorkerWakeDelay delays 20% of worker wakes by 2ms — owner
// wakes and idle-worker wakes alike: work sits beside a parked worker for
// a while but no wake is lost, so the result must be exact and the
// watchdog quiet (a deferred wake counts as pending progress).
func TestChaosWorkerWakeDelay(t *testing.T) {
	for _, seed := range chaosSeeds {
		inj := faultpoint.New(seed).Set(faultpoint.WorkerWake, faultpoint.Rule{
			Action: faultpoint.Delay, Rate: 0.20, Delay: 2 * time.Millisecond,
		})
		mustBeCorrect(t, seed, inj)
		mustBeCorrectStorm(t, seed, inj)
	}
}

// TestChaosWorkerWakeDup repeats 20% of worker wakes 1ms later. The repeat
// finds the worker running (the claim fails, no token is sent) or parked
// again (an ordinary spurious wake): either way no token may be left in a
// worker's slot to satisfy a later park it was not sent for — unpark
// panics if it ever finds the slot occupied.
func TestChaosWorkerWakeDup(t *testing.T) {
	for _, seed := range chaosSeeds {
		inj := faultpoint.New(seed).Set(faultpoint.WorkerWake, faultpoint.Rule{
			Action: faultpoint.Dup, Rate: 0.20, Delay: time.Millisecond,
		})
		mustBeCorrect(t, seed, inj)
		mustBeCorrectStorm(t, seed, inj)
	}
}

// A lost worker wake is a new way to hang, so it must fail loudly: with
// every wake dropped, resumed tasks pile up on the deques of parked
// owners, and the watchdog has to turn that into a *StallError that says
// so — parked workers beside pending work — and then wake everyone so the
// run drains without leaking a goroutine.
func TestChaosWorkerWakeDropStalls(t *testing.T) {
	base := goruntime.NumGoroutine()
	for _, seed := range chaosSeeds {
		inj := faultpoint.New(seed).Set(faultpoint.WorkerWake, faultpoint.Rule{
			Action: faultpoint.Drop, Rate: 1,
		})
		cfg := chaosConfig(seed, inj)
		start := time.Now()
		_, err := Run(cfg, func(c *Ctx) {
			futs := make([]*Future, 8)
			for i := range futs {
				futs[i] = c.Spawn(func(cc *Ctx) { cc.Latency(2 * time.Millisecond) })
			}
			for _, f := range futs {
				f.Await(c)
			}
		})
		var se *StallError
		if !errors.As(err, &se) {
			t.Fatalf("seed %d: Run err = %v, want *StallError (faults: %s)", seed, err, inj.Summary())
		}
		if se.ParkedWorkers != cfg.Workers || se.PendingResumed == 0 {
			t.Errorf("seed %d: stall reports %d parked worker(s), %d resumed task(s) pending; want %d and > 0\n%v",
				seed, se.ParkedWorkers, se.PendingResumed, cfg.Workers, se)
		}
		if el := time.Since(start); el > 4*cfg.StallTimeout {
			t.Errorf("seed %d: stall surfaced after %v, want within a few StallTimeouts (%v)", seed, el, cfg.StallTimeout)
		}
	}
	waitGoroutines(t, base+3)
}

// TestChaosResumeDrop loses 5% of resume injections: lost wakeups must
// surface as a watchdog stall (or the run-wide deadline), never a hang.
func TestChaosResumeDrop(t *testing.T) {
	for _, seed := range chaosSeeds {
		inj := faultpoint.New(seed).Set(faultpoint.ResumeInject, faultpoint.Rule{
			Action: faultpoint.Drop, Rate: 0.05,
		})
		correctOrTyped(t, seed, inj, ErrStalled, ErrDeadline)
	}
}

// TestChaosChanDrop loses 5% of channel wakeups: dropped handoffs strand
// a receiver or sender; the watchdog must name the stuck site.
func TestChaosChanDrop(t *testing.T) {
	for _, seed := range chaosSeeds {
		inj := faultpoint.New(seed).Set(faultpoint.ChanWakeup, faultpoint.Rule{
			Action: faultpoint.Drop, Rate: 0.05,
		})
		correctOrTyped(t, seed, inj, ErrStalled, ErrDeadline)
	}
}

// TestChaosTaskPanic panics 2% of task bodies: the run must fail with
// ErrTaskPanic (or finish exactly right when no panic fired), with
// suspended siblings aborted rather than leaked.
func TestChaosTaskPanic(t *testing.T) {
	for _, seed := range chaosSeeds {
		inj := faultpoint.New(seed).Set(faultpoint.TaskBody, faultpoint.Rule{
			Action: faultpoint.Panic, Rate: 0.02,
		})
		correctOrTyped(t, seed, inj, ErrTaskPanic)
	}
}

// TestChaosCombined arms several fault points at once — failed steals,
// delayed resumes, duplicated channel wakeups, and rare task panics —
// and still demands a correct result or a typed error.
func TestChaosCombined(t *testing.T) {
	for _, seed := range chaosSeeds {
		inj := faultpoint.New(seed).
			Set(faultpoint.Steal, faultpoint.Rule{Action: faultpoint.Fail, Rate: 0.05}).
			Set(faultpoint.ResumeInject, faultpoint.Rule{Action: faultpoint.Delay, Rate: 0.10, Delay: time.Millisecond}).
			Set(faultpoint.ChanWakeup, faultpoint.Rule{Action: faultpoint.Dup, Rate: 0.10, Delay: time.Millisecond}).
			Set(faultpoint.TaskBody, faultpoint.Rule{Action: faultpoint.Panic, Rate: 0.01})
		correctOrTyped(t, seed, inj, ErrTaskPanic)
	}
}

// runChaosBlocking runs the chaos workload in Blocking mode, followed by
// a few external awaits, so every fault point a wakeup passes through —
// ResumeInject (Latency, Await), ChanWakeup (Recv) and PollComplete —
// also sees waits whose task holds its worker. It returns the workload's
// sum; an external await that loses its payload adds a mismatch.
func runChaosBlocking(seed uint64, inj *faultpoint.Injector) (int, error) {
	cfg := chaosConfig(seed, inj)
	cfg.Mode = Blocking
	var got int
	_, err := Run(cfg, func(c *Ctx) {
		got = chaosWorkload(c)
		for i := 0; i < 4; i++ {
			v, _ := AwaitExternal(c, "chaos-ext", func(complete func(int, error)) func(error) {
				go complete(1, nil)
				return nil
			})
			got += v - 1
		}
	})
	return got, err
}

// TestChaosBlockingDelayDup delays and duplicates Blocking-mode wakeups at
// the rates of the latency-hiding scenarios: a late wakeup only holds its
// worker longer, and the epoch claim discards every duplicate — the wake
// must never send a second resume to a task that already has its worker
// back — so the result is exact.
func TestChaosBlockingDelayDup(t *testing.T) {
	for _, act := range []faultpoint.Action{faultpoint.Delay, faultpoint.Dup} {
		for _, seed := range chaosSeeds {
			inj := faultpoint.New(seed).
				Set(faultpoint.ResumeInject, faultpoint.Rule{Action: act, Rate: 0.20, Delay: 2 * time.Millisecond}).
				Set(faultpoint.ChanWakeup, faultpoint.Rule{Action: act, Rate: 0.20, Delay: time.Millisecond}).
				Set(faultpoint.PollComplete, faultpoint.Rule{Action: act, Rate: 0.20, Delay: time.Millisecond})
			got, err := runChaosBlocking(seed, inj)
			if err != nil {
				t.Fatalf("%v seed %d: Run: %v (faults: %s)", act, seed, err, inj.Summary())
			}
			if got != chaosWant {
				t.Fatalf("%v seed %d: sum = %d, want %d (faults: %s)", act, seed, got, chaosWant, inj.Summary())
			}
		}
	}
}

// TestChaosBlockingDropDeadline drops every Blocking-mode wakeup. The
// watchdog cannot see those waits — each holds its worker, which counts
// as running (Config.StallTimeout) — so the run deadline is what ends the
// run: its abort bypasses the injector, every waiting task unwinds, and
// Run returns ErrDeadline without leaving a goroutine behind.
func TestChaosBlockingDropDeadline(t *testing.T) {
	base := goruntime.NumGoroutine()
	drop := faultpoint.Rule{Action: faultpoint.Drop, Rate: 1}
	for _, seed := range chaosSeeds {
		inj := faultpoint.New(seed).
			Set(faultpoint.ResumeInject, drop).
			Set(faultpoint.ChanWakeup, drop).
			Set(faultpoint.PollComplete, drop)
		cfg := chaosConfig(seed, inj)
		cfg.Mode = Blocking
		cfg.Deadline = 50 * time.Millisecond
		start := time.Now()
		_, err := Run(cfg, func(c *Ctx) { chaosWorkload(c) })
		if !errors.Is(err, ErrDeadline) {
			t.Fatalf("seed %d: Run err = %v, want ErrDeadline (faults: %s)", seed, err, inj.Summary())
		}
		if el := time.Since(start); el > 2*time.Second {
			t.Errorf("seed %d: run took %v; the %v deadline did not end it", seed, el, cfg.Deadline)
		}
	}
	waitGoroutines(t, base+3)
}

// chaosStormWorkload is the bulk-injection shape: stormWidth consumers
// all park on one channel, so every broadcast round re-injects a wide
// batch through drainResumed's single pfor push, and the consumers' pooled
// shells cycle through suspension every round. Faults landing inside a
// batch (dropped, delayed, duplicated wakeups) therefore hit the pfor
// split and shell-recycling paths specifically.
func chaosStormWorkload(c *Ctx) int {
	const width, rounds = 16, 8
	work := NewChan[int](0)
	ack := NewChan[int](0)
	for i := 0; i < width; i++ {
		c.Spawn(func(cc *Ctx) {
			for {
				v, ok := work.RecvOK(cc)
				if !ok {
					return
				}
				ack.Send(cc, v)
			}
		})
	}
	sum := 0
	for r := 0; r < rounds; r++ {
		for i := 0; i < width; i++ {
			work.Send(c, r*width+i+1)
		}
		for i := 0; i < width; i++ {
			sum += ack.Recv(c)
		}
	}
	work.Close()
	return sum
}

const chaosStormWant = (16 * 8) * (16*8 + 1) / 2

// mustBeCorrectStorm is mustBeCorrect for the storm shape.
func mustBeCorrectStorm(t *testing.T, seed uint64, inj *faultpoint.Injector) {
	t.Helper()
	var got int
	st, err := Run(chaosConfig(seed, inj), func(c *Ctx) { got = chaosStormWorkload(c) })
	if err != nil {
		t.Fatalf("seed %d: Run: %v (faults: %s)", seed, err, inj.Summary())
	}
	if got != chaosStormWant {
		t.Fatalf("seed %d: sum = %d, want %d (faults: %s)", seed, got, chaosStormWant, inj.Summary())
	}
	if st.Stalled {
		t.Fatalf("seed %d: watchdog fired on a recoverable fault", seed)
	}
}

// TestChaosStormResumeFaults runs the storm shape under delayed resume
// injections plus duplicated channel wakeups: batches split and recycle
// out of order, but no value may be lost or delivered twice.
func TestChaosStormResumeFaults(t *testing.T) {
	for _, seed := range chaosSeeds {
		inj := faultpoint.New(seed).
			Set(faultpoint.ResumeInject, faultpoint.Rule{Action: faultpoint.Delay, Rate: 0.20, Delay: 2 * time.Millisecond}).
			Set(faultpoint.ChanWakeup, faultpoint.Rule{Action: faultpoint.Dup, Rate: 0.20, Delay: time.Millisecond})
		mustBeCorrectStorm(t, seed, inj)
	}
}

// TestChaosStormDrop loses 5% of channel wakeups under the storm shape:
// a drop strands part of a re-injected batch, and the watchdog (or the
// run deadline) must convert that into a typed error, never a hang.
func TestChaosStormDrop(t *testing.T) {
	for _, seed := range chaosSeeds {
		inj := faultpoint.New(seed).Set(faultpoint.ChanWakeup, faultpoint.Rule{
			Action: faultpoint.Drop, Rate: 0.05,
		})
		var got int
		_, err := Run(chaosConfig(seed, inj), func(c *Ctx) { got = chaosStormWorkload(c) })
		if err == nil {
			if got != chaosStormWant {
				t.Fatalf("seed %d: err nil but sum = %d, want %d (faults: %s)",
					seed, got, chaosStormWant, inj.Summary())
			}
			continue
		}
		if !errors.Is(err, ErrStalled) && !errors.Is(err, ErrDeadline) && !errors.Is(err, ErrCanceled) {
			t.Fatalf("seed %d: Run err = %v, want nil, stall, deadline, or cancel (faults: %s)",
				seed, err, inj.Summary())
		}
	}
}

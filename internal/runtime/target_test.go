package runtime

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// Tests for latency targets (WithTarget/WithDeadline), deadline-aware
// deque selection, and steal gating (Config.ShedBlownTargets).

// TestWithTargetInheritance checks that targets propagate min-wise down
// derived scopes and into spawned subtrees.
func TestWithTargetInheritance(t *testing.T) {
	_, err := Run(Config{Workers: 1}, func(c *Ctx) {
		if c.Target() != 0 {
			t.Error("root context has a target before WithTarget")
		}
		tc, cancel := c.WithTarget(time.Hour)
		defer cancel()
		outer := tc.Target()
		if outer == 0 {
			t.Fatal("WithTarget installed no target")
		}
		// A longer child target must not relax the inherited one.
		loose, cancelLoose := tc.WithTarget(10 * time.Hour)
		defer cancelLoose()
		if got := loose.Target(); got != outer {
			t.Errorf("child target %d relaxed inherited %d", got, outer)
		}
		// A shorter child target tightens it.
		tight, cancelTight := tc.WithTarget(time.Minute)
		defer cancelTight()
		if got := tight.Target(); got >= outer {
			t.Errorf("child target %d did not tighten inherited %d", got, outer)
		}
		// Spawned children inherit through the scope.
		tc.Spawn(func(cc *Ctx) {
			if cc.Target() != outer {
				t.Errorf("spawned child target = %d, want %d", cc.Target(), outer)
			}
		}).Await(c)
		// WithDeadline is a target too.
		dc, cancelD := c.WithDeadline(time.Hour)
		defer cancelD()
		if dc.Target() == 0 {
			t.Error("WithDeadline installed no target")
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestSuspensionPinsCallingHandlesTarget is the regression test for
// beginWait reading the task's spawn scope instead of the calling handle's:
// a wait armed through a derived handle must pin that handle's target on
// the home deque, or deadline-aware selection loses the request at its
// first suspension.
func TestSuspensionPinsCallingHandlesTarget(t *testing.T) {
	_, err := Run(Config{Workers: 1}, func(c *Ctx) {
		home := c.t.w.active
		tc, cancel := c.WithTarget(time.Hour)
		defer cancel()
		tc.Latency(100 * time.Microsecond)
		if got := home.targetNs.Load(); got != tc.Target() {
			t.Errorf("home deque target = %d after a Latency through a WithTarget handle, want the handle's %d", got, tc.Target())
		}
		if got := home.targetScope.Load(); got != tc.scope {
			t.Errorf("home deque target scope = %p, want the handle's scope %p", got, tc.scope)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestShedBlownTargets drives a subtree whose target is already blown and
// checks that a thief sheds it: the subtree is canceled with
// ErrTargetMissed instead of being stolen from, and the shed is counted.
func TestShedBlownTargets(t *testing.T) {
	var missed atomic.Int64
	// The children run until shed: if steal gating broke, the run hits the
	// backstop deadline and the test fails on ErrDeadline instead of
	// hanging.
	st, err := Run(Config{Workers: 2, ShedBlownTargets: true, Deadline: 10 * time.Second}, func(c *Ctx) {
		tc, cancel := c.WithTarget(time.Nanosecond)
		defer cancel()
		futs := make([]*Future, 0, 64)
		for i := 0; i < 64; i++ {
			futs = append(futs, tc.Spawn(func(cc *Ctx) {
				for {
					cc.Latency(500 * time.Microsecond)
				}
			}))
		}
		for _, f := range futs {
			if errors.Is(f.AwaitErr(c), ErrTargetMissed) {
				missed.Add(1)
			}
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st.TargetCancels < 1 {
		t.Errorf("TargetCancels = %d, want >= 1", st.TargetCancels)
	}
	if missed.Load() == 0 {
		t.Error("no child unwound with ErrTargetMissed")
	}
	if st.TasksCanceled == 0 {
		t.Error("shedding canceled no tasks")
	}
}

// TestShedDisabledByDefault checks that without ShedBlownTargets a blown
// target never cancels anything — targets only steer scheduling.
func TestShedDisabledByDefault(t *testing.T) {
	st, err := Run(Config{Workers: 2}, func(c *Ctx) {
		tc, cancel := c.WithTarget(time.Nanosecond)
		defer cancel()
		futs := make([]*Future, 0, 16)
		for i := 0; i < 16; i++ {
			futs = append(futs, tc.Spawn(func(cc *Ctx) {
				cc.Latency(time.Millisecond)
			}))
		}
		for _, f := range futs {
			if err := f.AwaitErr(c); err != nil {
				t.Errorf("child failed under disabled shedding: %v", err)
			}
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st.TargetCancels != 0 {
		t.Errorf("TargetCancels = %d with shedding disabled", st.TargetCancels)
	}
}

// TestTasksLateCounted checks the goodput counter: a task finishing after
// its scope's target is recorded in Stats.TasksLate.
func TestTasksLateCounted(t *testing.T) {
	st, err := Run(Config{Workers: 2}, func(c *Ctx) {
		tc, cancel := c.WithTarget(time.Millisecond)
		defer cancel()
		tc.Spawn(func(cc *Ctx) {
			cc.Latency(20 * time.Millisecond)
		}).Await(c)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st.TasksLate < 1 {
		t.Errorf("TasksLate = %d, want >= 1", st.TasksLate)
	}
}

// TestDeadlineBeatsWatchdog is the regression test for the
// deadline-vs-watchdog race: a request suspended under a derived
// WithDeadline longer than StallTimeout must be resolved by the deadline
// (exactly one typed ErrDeadline), not double-reported as a *StallError —
// the armed deadline timer is a pending wake, so the run is waiting, not
// stalled.
func TestDeadlineBeatsWatchdog(t *testing.T) {
	var childErr error
	st, err := Run(Config{Workers: 2, StallTimeout: 100 * time.Millisecond}, func(c *Ctx) {
		dc, cancel := c.WithDeadline(400 * time.Millisecond)
		defer cancel()
		ch := NewChan[int](0)
		f := dc.Spawn(func(cc *Ctx) {
			ch.Recv(cc) // no sender: only the deadline can end this wait
		})
		childErr = f.AwaitErr(c)
	})
	if err != nil {
		t.Fatalf("Run returned %v, want nil (deadline confined to derived scope)", err)
	}
	if !errors.Is(childErr, ErrDeadline) {
		t.Fatalf("child error = %v, want ErrDeadline", childErr)
	}
	if st.Stalled {
		t.Error("watchdog fired while a derived deadline was pending")
	}
	var stall *StallError
	if errors.As(childErr, &stall) {
		t.Errorf("deadline expiry reported as a stall: %v", childErr)
	}
	for _, s := range st.SuppressedErrors {
		if strings.Contains(s, "stall") {
			t.Errorf("suppressed stall error alongside deadline: %q", s)
		}
	}
}

// TestRootDeadlineStillBackstopsWatchdog pins the asymmetry: the root
// Config.Deadline must NOT count as a pending wake, or it would blind the
// watchdog for the whole run. A genuinely lost wakeup under a long root
// deadline must still surface as a *StallError.
func TestRootDeadlineStillBackstopsWatchdog(t *testing.T) {
	blackhole := make(chan int)
	_, err := Run(Config{
		Workers:      2,
		Deadline:     30 * time.Second,
		StallTimeout: 150 * time.Millisecond,
	}, func(c *Ctx) {
		AwaitChan(c, blackhole) // never completes: a real stall
	})
	var stall *StallError
	if !errors.As(err, &stall) {
		t.Fatalf("Run error = %v, want *StallError despite root deadline", err)
	}
}

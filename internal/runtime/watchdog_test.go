package runtime

import (
	"errors"
	"strings"
	"testing"
	"time"

	"lhws/internal/faultpoint"
)

// A wakeup dropped by fault injection would hang the run forever; the
// watchdog must convert it into a structured *StallError naming the
// stuck suspension instead.
func TestWatchdogDetectsLostWakeup(t *testing.T) {
	inj := faultpoint.New(1).Set(faultpoint.ResumeInject, faultpoint.Rule{
		Action: faultpoint.Drop, Rate: 1.0,
	})
	start := time.Now()
	st, err := Run(Config{
		Workers:      2,
		StallTimeout: 100 * time.Millisecond,
		Faults:       inj,
	}, func(c *Ctx) {
		c.Latency(5 * time.Millisecond) // wake dropped: stays suspended
	})
	if wall := time.Since(start); wall > 10*time.Second {
		t.Fatalf("run took %v; watchdog did not bound the lost wakeup", wall)
	}
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("Run err = %v, want *StallError", err)
	}
	if !errors.Is(err, ErrStalled) {
		t.Errorf("err does not unwrap to ErrStalled")
	}
	if !st.Stalled {
		t.Errorf("Stats.Stalled = false, want true")
	}
	found := false
	for _, w := range se.Waits {
		if w.Site == "latency" {
			found = true
		}
	}
	if !found {
		t.Errorf("StallError.Waits = %v, want a %q suspension", se.Waits, "latency")
	}
	if !strings.Contains(err.Error(), "latency") {
		t.Errorf("diagnostic %q does not name the suspension site", err.Error())
	}
}

// The watchdog reads open waits from the scope tree, so a wait registered
// on a derived scope — a WithCancel or WithTarget handle — must be found
// below the root and reported with its kind, its worker and its age.
func TestWatchdogReportsDerivedScopeWait(t *testing.T) {
	for _, tc := range []struct {
		name   string
		derive func(*Ctx) (*Ctx, func())
	}{
		{"WithCancel", (*Ctx).WithCancel},
		{"WithTarget", func(c *Ctx) (*Ctx, func()) { return c.WithTarget(time.Hour) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inj := faultpoint.New(1).Set(faultpoint.ResumeInject, faultpoint.Rule{
				Action: faultpoint.Drop, Rate: 1.0,
			})
			worker := -1
			_, err := Run(Config{Workers: 2, StallTimeout: 100 * time.Millisecond, Faults: inj}, func(c *Ctx) {
				dc, cancel := tc.derive(c)
				defer cancel()
				worker = dc.Worker()
				dc.Latency(5 * time.Millisecond) // wake dropped: stays suspended
			})
			var se *StallError
			if !errors.As(err, &se) {
				t.Fatalf("Run err = %v, want *StallError", err)
			}
			if len(se.Waits) != 1 {
				t.Fatalf("StallError.Waits = %v, want the one latency wait", se.Waits)
			}
			w := se.Waits[0]
			if w.Site != "latency" || w.Kind != KindTimer || w.Worker != worker || w.Age <= 0 {
				t.Errorf("wait = %+v, want site latency, kind %v, worker %d, age > 0", w, KindTimer, worker)
			}
		})
	}
}

// A long legitimate Latency keeps a timer pending; the watchdog must not
// mistake that quiet for a stall.
func TestWatchdogNoFalsePositiveOnLongLatency(t *testing.T) {
	st, err := Run(Config{
		Workers:      2,
		StallTimeout: 50 * time.Millisecond,
	}, func(c *Ctx) {
		c.Latency(300 * time.Millisecond) // 6x the stall timeout
	})
	if err != nil {
		t.Fatalf("Run: %v (armed timer misdiagnosed as stall)", err)
	}
	if st.Stalled {
		t.Errorf("Stats.Stalled = true on a healthy run")
	}
}

// A genuine deadlock — a receive nothing will ever satisfy — must surface
// as a diagnostic naming the channel suspension, not a hang.
func TestWatchdogDiagnosesChanDeadlock(t *testing.T) {
	start := time.Now()
	st, err := Run(Config{
		Workers:      2,
		StallTimeout: 100 * time.Millisecond,
	}, func(c *Ctx) {
		ch := NewChan[int](0)
		fut := c.Spawn(func(c2 *Ctx) { ch.Recv(c2) }) // no sender exists
		// A sibling below the receiver on the deque keeps the join a real
		// suspension (an unstolen bottom child would run as a call, and the
		// only open suspension would be the root's own chan-recv).
		c.Spawn(func(*Ctx) {})
		fut.Await(c)
	})
	if wall := time.Since(start); wall > 10*time.Second {
		t.Fatalf("run took %v; watchdog did not bound the deadlock", wall)
	}
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("Run err = %v, want *StallError", err)
	}
	sites := map[string]bool{}
	for _, w := range se.Waits {
		sites[w.Site] = true
	}
	if !sites["chan-recv"] {
		t.Errorf("StallError.Waits = %v, want a %q suspension", se.Waits, "chan-recv")
	}
	if !sites["await"] {
		t.Errorf("StallError.Waits = %v, want an %q suspension", se.Waits, "await")
	}
	if st.TasksCanceled == 0 {
		t.Errorf("TasksCanceled = 0: stall recovery did not unwind the stuck tasks")
	}
}

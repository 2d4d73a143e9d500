package faultpoint

import (
	"strings"
	"testing"
	"time"
)

func TestDisarmedInjectorNeverFires(t *testing.T) {
	in := New(1)
	for i := 0; i < 1000; i++ {
		if act, _ := in.Decide(Steal); act != None {
			t.Fatalf("disarmed point fired %v", act)
		}
	}
	if in.Fired(Steal) != 0 || in.Evaluated(Steal) != 1000 {
		t.Fatalf("fired %d evaluated %d, want 0/1000", in.Fired(Steal), in.Evaluated(Steal))
	}
}

func TestRateOneAlwaysFires(t *testing.T) {
	in := New(2).Set(ResumeInject, Rule{Action: Drop, Rate: 1})
	for i := 0; i < 100; i++ {
		if act, _ := in.Decide(ResumeInject); act != Drop {
			t.Fatalf("rate-1 point returned %v", act)
		}
	}
}

func TestRateRoughlyHonored(t *testing.T) {
	in := New(3).Set(Steal, Rule{Action: Fail, Rate: 0.1})
	const n = 20000
	for i := 0; i < n; i++ {
		in.Decide(Steal)
	}
	got := float64(in.Fired(Steal)) / n
	if got < 0.07 || got > 0.13 {
		t.Fatalf("fire rate %.3f, want ~0.10", got)
	}
}

func TestSeededReplay(t *testing.T) {
	draw := func(seed uint64) []Action {
		in := New(seed).Set(ChanWakeup, Rule{Action: Dup, Rate: 0.5})
		out := make([]Action, 200)
		for i := range out {
			out[i], _ = in.Decide(ChanWakeup)
		}
		return out
	}
	a, b := draw(7), draw(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := draw(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical decision streams")
	}
}

func TestInjectPanics(t *testing.T) {
	in := New(4).Set(TaskBody, Rule{Action: Panic, Rate: 1})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Inject with Panic rule did not panic")
		}
		if !strings.Contains(r.(string), "task-body") {
			t.Fatalf("panic value %q does not name the point", r)
		}
	}()
	in.Inject(TaskBody)
}

func TestInjectDelaySleeps(t *testing.T) {
	in := New(5).Set(Suspend, Rule{Action: Delay, Rate: 1, Delay: 5 * time.Millisecond})
	start := time.Now()
	in.Inject(Suspend)
	if time.Since(start) < 4*time.Millisecond {
		t.Fatal("Delay rule did not sleep")
	}
}

func TestSummaryAndStrings(t *testing.T) {
	in := New(6)
	if got := in.Summary(); got != "no fault points evaluated" {
		t.Fatalf("empty summary = %q", got)
	}
	in.Set(Steal, Rule{Action: Fail, Rate: 1})
	in.Decide(Steal)
	if got := in.Summary(); !strings.Contains(got, "steal 1/1") {
		t.Fatalf("summary = %q, want steal 1/1", got)
	}
	for p := Point(0); p < numPoints; p++ {
		if strings.HasPrefix(p.String(), "Point(") {
			t.Fatalf("point %d has no name", int(p))
		}
	}
	for _, a := range []Action{None, Fail, Drop, Delay, Dup, Panic} {
		if strings.HasPrefix(a.String(), "Action(") {
			t.Fatalf("action %d has no name", int(a))
		}
	}
}

// TestDecideDisarmedIsLockFree is the regression test for a steal-path
// serialization through one global mutex: Decide on a disarmed point
// must be a pure atomic read, never touching in.mu. With the mutex
// deliberately held, a lock-taking fast path would deadlock here instead
// of returning.
func TestDecideDisarmedIsLockFree(t *testing.T) {
	in := New(7).Set(Suspend, Rule{Action: Fail, Rate: 1}) // arm a *different* point
	in.mu.Lock()
	defer in.mu.Unlock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			if act, _ := in.Decide(Steal); act != None {
				t.Errorf("disarmed point fired %v", act)
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Decide on a disarmed point blocked on the injector mutex")
	}
}

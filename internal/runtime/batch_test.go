package runtime

import (
	"testing"
	"time"
)

// Tests for the batched steal path (worker.trySteal): a successful
// steal transfers the oldest prefix of the victim deque — up to half,
// capped at DefaultStealBatch — onto the thief's deque with order
// preserved, migrates the victim deque's target marker once per batch,
// and records the transfer in the steal counters.

// stealOnce drives thief.trySteal until it succeeds.
func stealOnce(t *testing.T, thief *worker) {
	t.Helper()
	for i := 0; i < 100; i++ {
		if thief.trySteal() {
			return
		}
	}
	t.Fatal("trySteal did not succeed in 100 attempts")
}

// TestBatchStealPrefixTransfer pins the transfer contract on plain task
// items: with 8 tasks on the victim, one steal moves the oldest 4; the
// thief runs the very oldest and its deque drains the rest newest-first
// (per-task LIFO preserved), while the victim keeps the bottom half.
func TestBatchStealPrefixTransfer(t *testing.T) {
	ws := harnessWorkers(2)
	victim, thief := ws[0], ws[1]
	const n = 8
	tasks := make([]*task, n)
	for i := range tasks {
		tasks[i] = &task{}
		victim.active.q.PushBottom(victim.newTaskNode(tasks[i]))
	}
	stealOnce(t, thief)

	if thief.assigned != tasks[0] {
		t.Fatalf("thief runs task %d, want 0 (the oldest)", taskIndex(tasks, thief.assigned))
	}
	got := drainOwner(thief)
	want := []int{3, 2, 1} // LIFO over the transferred prefix t1..t3
	if len(got) != len(want) {
		t.Fatalf("thief deque drained %d tasks, want %d", len(got), len(want))
	}
	for i, tk := range got {
		if tk != tasks[want[i]] {
			t.Fatalf("thief pop %d = task %d, want %d", i, taskIndex(tasks, tk), want[i])
		}
	}
	rest := drainOwner(victim)
	for i, tk := range rest {
		if want := n - 1 - i; tk != tasks[want] {
			t.Fatalf("victim pop %d = task %d, want %d", i, taskIndex(tasks, tk), want)
		}
	}
	if len(rest) != n/2 {
		t.Fatalf("victim retained %d tasks, want %d (the bottom half)", len(rest), n/2)
	}

	st := thief.stat
	if st.steals.Load() != 1 || st.batchItems.Load() != 4 {
		t.Fatalf("steals=%d batchItems=%d, want 1 and 4", st.steals.Load(), st.batchItems.Load())
	}
}

// TestBatchStealMigratesTarget checks that the victim deque's latency
// target (and the scope that set it) follows the stolen batch onto the
// thief's fresh deque — once per batch, not per item.
func TestBatchStealMigratesTarget(t *testing.T) {
	ws := harnessWorkers(2)
	victim, thief := ws[0], ws[1]
	sc := newCancelScope(victim.rt, nil)
	tgt := time.Now().Add(time.Hour).UnixNano()
	victim.active.noteTarget(tgt, sc)
	if victim.rt.activeTargets.Load() != 1 {
		t.Fatalf("activeTargets = %d after noteTarget, want 1", victim.rt.activeTargets.Load())
	}
	for i := 0; i < 4; i++ {
		victim.active.q.PushBottom(victim.newTaskNode(&task{}))
	}
	stealOnce(t, thief)
	if got := thief.active.targetNs.Load(); got != tgt {
		t.Fatalf("thief deque target = %d, want %d (migrated with the batch)", got, tgt)
	}
	if got := thief.active.targetScope.Load(); got != sc {
		t.Fatalf("thief deque target scope did not follow the batch")
	}
	if victim.rt.activeTargets.Load() != 2 {
		t.Fatalf("activeTargets = %d after migration, want 2 (victim + thief)", victim.rt.activeTargets.Load())
	}
}

// TestBatchStealPforNodeKeepsHalfRangeSplit checks that a pfor batch
// node crossing as part of a steal still resolves by the lazy half-range
// split: the thief executes the range's last task and its deque keeps
// the left half stealable, exactly as with a single-item steal.
func TestBatchStealPforNodeKeepsHalfRangeSplit(t *testing.T) {
	ws := harnessWorkers(2)
	victim, thief := ws[0], ws[1]
	const n = 8
	tasks := make([]*task, n)
	for i := range tasks {
		tasks[i] = &task{}
	}
	victim.active.q.PushBottom(victim.newBatchNode(append([]*task(nil), tasks...)))
	stealOnce(t, thief)
	if thief.assigned != tasks[n-1] {
		t.Fatalf("thief runs task %d, want %d (the range's last)", taskIndex(tasks, thief.assigned), n-1)
	}
	seen := map[*task]bool{thief.assigned: true}
	for _, tk := range drainOwner(thief) {
		if seen[tk] {
			t.Fatalf("task %d extracted twice", taskIndex(tasks, tk))
		}
		seen[tk] = true
	}
	if len(seen) != n {
		t.Fatalf("thief extracted %d distinct tasks, want %d (batch node moved whole)", len(seen), n)
	}
	if bi := thief.stat.batchItems.Load(); bi != 1 {
		t.Fatalf("batchItems = %d, want 1 (a pfor node is one item)", bi)
	}
}

// TestPickVictimUniform checks the §6 victim draw: no victim for a lone
// worker, never the thief itself, and every other worker reachable.
func TestPickVictimUniform(t *testing.T) {
	if v := harnessWorkers(1)[0].pickVictim(); v != nil {
		t.Fatalf("P=1: pickVictim = worker %d, want nil", v.id)
	}
	ws := harnessWorkers(8)
	thief := ws[1]
	seen := make(map[int]bool)
	for i := 0; i < 200; i++ {
		v := thief.pickVictim()
		if v == nil || v == thief {
			t.Fatal("pickVictim returned nil or self")
		}
		seen[v.id] = true
	}
	if len(seen) != len(ws)-1 {
		t.Fatalf("200 draws reached %d of the %d other workers", len(seen), len(ws)-1)
	}
}

// TestRunStealStatsConsistency runs a steal-heavy workload end to end
// and checks the steal counters' invariants: a steal is a successful
// attempt, and every steal moves between 1 and DefaultStealBatch items.
func TestRunStealStatsConsistency(t *testing.T) {
	for _, m := range modes() {
		var st *Stats
		for attempt := 0; attempt < 20 && (st == nil || st.Steals == 0); attempt++ {
			var err error
			st, err = Run(Config{Workers: 4, Mode: m, Seed: uint64(attempt)}, func(c *Ctx) {
				var futs []*Future
				for i := 0; i < 64; i++ {
					futs = append(futs, c.Spawn(func(cc *Ctx) { busyWork(100000) }))
				}
				for _, f := range futs {
					f.Await(c)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		if st.Steals == 0 {
			t.Errorf("%v: no steals despite 64 tasks on 4 workers", m)
			continue
		}
		if st.Steals > st.StealAttempts {
			t.Errorf("%v: Steals = %d > StealAttempts = %d", m, st.Steals, st.StealAttempts)
		}
		if st.BatchItems < st.Steals || st.BatchItems > DefaultStealBatch*st.Steals {
			t.Errorf("%v: BatchItems = %d outside [Steals, %d·Steals] = [%d, %d]",
				m, st.BatchItems, DefaultStealBatch, st.Steals, DefaultStealBatch*st.Steals)
		}
	}
}

// TestStealSkewBatchAmortizes is the steal-half policy gate: with a
// 512-wide fan-out of spinning leaves born on one worker, thieves find
// deep deques, so a successful steal must move at least 2 items on
// average — the batching actually amortizing. It gates a count, not a
// time, so a noisy host cannot flip it.
func TestStealSkewBatchAmortizes(t *testing.T) {
	const fan, rounds = 512, 8
	// busyWork, not benchSpin: its sink is atomic, so -race stays quiet.
	spin := func(*Ctx) { busyWork(200) }
	var st *Stats
	for seed := uint64(1); seed <= 5 && (st == nil || st.Steals == 0); seed++ {
		var err error
		st, err = Run(Config{Workers: 4, Mode: LatencyHiding, Seed: seed}, func(c *Ctx) {
			futs := make([]*Future, fan)
			for r := 0; r < rounds; r++ {
				for i := range futs {
					futs[i] = c.Spawn(spin)
				}
				for _, f := range futs {
					f.Await(c)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if st.Steals == 0 {
		t.Fatal("no successful steals in five runs; the workload is not steal-heavy")
	}
	per := float64(st.BatchItems) / float64(st.Steals)
	t.Logf("%.2f items per steal (%d items / %d steals)", per, st.BatchItems, st.Steals)
	if per < 2 {
		t.Fatalf("%.2f items per steal, want >= 2", per)
	}
}

package experiments

import (
	"os"
	goruntime "runtime"
	"strings"
	"testing"
)

func TestMain(m *testing.M) {
	// The wall-clock experiment runs the goroutine runtime; give its
	// workers real OS threads even on single-core hosts.
	if goruntime.GOMAXPROCS(0) < 4 {
		goruntime.GOMAXPROCS(4)
	}
	os.Exit(m.Run())
}

func TestDeltaRoundsCalibration(t *testing.T) {
	// fib(8) has 100 vertices ≈ 150ms of element work; δ=500ms maps to
	// 500/150·100 ≈ 333 rounds.
	if got := DeltaRounds(500, 8); got != 333 {
		t.Errorf("DeltaRounds(500, 8) = %d, want 333", got)
	}
	if got := DeltaRounds(150, 8); got != 100 {
		t.Errorf("DeltaRounds(150, 8) = %d, want 100", got)
	}
	if got := DeltaRounds(50, 8); got != 33 {
		t.Errorf("DeltaRounds(50, 8) = %d, want 33", got)
	}
	// Tiny latencies clamp to the minimum heavy weight.
	if got := DeltaRounds(1, 8); got != 2 {
		t.Errorf("DeltaRounds(1, 8) = %d, want 2", got)
	}
}

// smallFig11 shrinks the scaled config further so the full test suite
// stays fast; shape checks are scale-free (they depend on the ratio).
func smallFig11(deltaMS float64) Fig11Config {
	return Fig11Config{N: 120, FibWork: 6, DeltaMS: deltaMS, Workers: []int{1, 2, 4, 8, 16}, Seed: 1}
}

func TestFig11HighLatencyPanel(t *testing.T) {
	r, err := Fig11(smallFig11(500))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Check(); err != nil {
		t.Fatalf("%v\n%s", err, r.Table())
	}
	last := r.Points[len(r.Points)-1]
	if last.LHWSSpeedup <= float64(last.P) {
		t.Errorf("expected superlinear LHWS speedup at δ=500ms, got %.1f at P=%d", last.LHWSSpeedup, last.P)
	}
}

func TestFig11MediumLatencyPanel(t *testing.T) {
	r, err := Fig11(smallFig11(50))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Check(); err != nil {
		t.Fatalf("%v\n%s", err, r.Table())
	}
}

func TestFig11LowLatencyPanel(t *testing.T) {
	r, err := Fig11(smallFig11(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Check(); err != nil {
		t.Fatalf("%v\n%s", err, r.Table())
	}
	// Near parity: LHWS within 25% of WS everywhere.
	for _, pt := range r.Points {
		if pt.RoundsRatio < 0.75 {
			t.Errorf("P=%d: LHWS %.2fx of WS at negligible latency", pt.P, pt.RoundsRatio)
		}
	}
}

func TestFig11PanelOrdering(t *testing.T) {
	// The benefit of latency hiding must grow with latency: ratio(500ms) ≥
	// ratio(50ms) ≥ ratio(1ms) at the top worker count.
	var ratios []float64
	for _, d := range []float64{500, 50, 1} {
		r, err := Fig11(smallFig11(d))
		if err != nil {
			t.Fatal(err)
		}
		ratios = append(ratios, r.Points[len(r.Points)-1].RoundsRatio)
	}
	if !(ratios[0] >= ratios[1] && ratios[1] >= ratios[2]) {
		t.Errorf("WS/LHWS ratios not decreasing with latency: %v", ratios)
	}
}

func TestFig11TableRenders(t *testing.T) {
	r, err := Fig11(Fig11Config{N: 16, FibWork: 4, DeltaMS: 100, Workers: []int{1, 2}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tb := r.Table().String()
	for _, want := range []string{"LHWS speedup", "WS/LHWS"} {
		if !strings.Contains(tb, want) {
			t.Errorf("table missing %q:\n%s", want, tb)
		}
	}
}

func TestGreedyExperiment(t *testing.T) {
	r, err := Greedy(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Check(); err != nil {
		t.Fatalf("%v\n%s", err, r.Table())
	}
	if len(r.Rows) == 0 {
		t.Fatal("no rows")
	}
}

func TestBoundExperiment(t *testing.T) {
	r, err := Bound(5)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Check(); err != nil {
		t.Fatalf("%v\n%s", err, r.Table())
	}
}

func TestLemmasExperiment(t *testing.T) {
	r, err := Lemmas(7)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Check(); err != nil {
		t.Fatalf("%v\n%s", err, r.Table())
	}
}

func TestStealsExperiment(t *testing.T) {
	r, err := Steals(11)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Check(); err != nil {
		t.Fatalf("%v\n%s", err, r.Table())
	}
}

func TestUWidthExperiment(t *testing.T) {
	r, err := UWidth(13)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Check(); err != nil {
		t.Fatalf("%v\n%s", err, r.Table())
	}
	// The long-latency map-reduce rows should observe the full width: every
	// fetch in flight at once.
	sawFull := false
	for _, row := range r.Rows {
		if strings.HasPrefix(row.Workload, "mapreduce") && row.Observed == row.ExactU {
			sawFull = true
		}
	}
	if !sawFull {
		t.Errorf("no map-reduce run realized its full suspension width:\n%s", r.Table())
	}
}

func TestWallclockExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock experiment in -short mode")
	}
	cfg := WallclockConfig{N: 60, Delta: 4 * 1e6, Workers: []int{1, 2}, Spin: 5000} // 4ms
	r, err := Wallclock(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Check(); err != nil {
		t.Fatalf("%v\n%s", err, r.Table())
	}
}

func TestVariantsExperiment(t *testing.T) {
	r, err := Variants(17)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Check(); err != nil {
		t.Fatalf("%v\n%s", err, r.Table())
	}
}

func TestPotentialExperiment(t *testing.T) {
	r, err := Potential(29)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Check(); err != nil {
		t.Fatalf("%v\n%s", err, r.Table())
	}
}

func TestResponsivenessExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock experiment in -short mode")
	}
	cfg := ScaledResponsiveness()
	cfg.Requests = 20
	cfg.BatchChunks = 64
	r, err := Responsiveness(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Check(); err != nil {
		t.Fatalf("%v\n%s", err, r.Table())
	}
}

func TestMultiprogrammedExperiment(t *testing.T) {
	r, err := Multiprogrammed(41)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Check(); err != nil {
		t.Fatalf("%v\n%s", err, r.Table())
	}
}

func TestScaleExperiment(t *testing.T) {
	r, err := Scale(43)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Check(); err != nil {
		t.Fatalf("%v\n%s", err, r.Table())
	}
}

// TestAllTablesRender drives every experiment's Table through rendering
// and checks headers and row counts, so the harness output paths stay
// exercised even when individual experiments change.
func TestAllTablesRender(t *testing.T) {
	type tabled interface{ Check() error }
	cases := map[string]func() (interface{ Check() error }, string, int){
		"greedy": func() (interface{ Check() error }, string, int) {
			r, err := Greedy(1)
			if err != nil {
				t.Fatal(err)
			}
			return r, r.Table().String(), len(r.Rows)
		},
		"bound": func() (interface{ Check() error }, string, int) {
			r, err := Bound(1)
			if err != nil {
				t.Fatal(err)
			}
			return r, r.Table().String(), len(r.Rows)
		},
		"lemmas": func() (interface{ Check() error }, string, int) {
			r, err := Lemmas(1)
			if err != nil {
				t.Fatal(err)
			}
			return r, r.Table().String(), len(r.Rows)
		},
		"steals": func() (interface{ Check() error }, string, int) {
			r, err := Steals(1)
			if err != nil {
				t.Fatal(err)
			}
			return r, r.Table().String(), len(r.Rows)
		},
		"variants": func() (interface{ Check() error }, string, int) {
			r, err := Variants(1)
			if err != nil {
				t.Fatal(err)
			}
			return r, r.Table().String(), len(r.Rows)
		},
		"uwidth": func() (interface{ Check() error }, string, int) {
			r, err := UWidth(1)
			if err != nil {
				t.Fatal(err)
			}
			return r, r.Table().String(), len(r.Rows)
		},
		"multiprog": func() (interface{ Check() error }, string, int) {
			r, err := Multiprogrammed(1)
			if err != nil {
				t.Fatal(err)
			}
			return r, r.Table().String(), len(r.Rows)
		},
		"scale": func() (interface{ Check() error }, string, int) {
			r, err := Scale(1)
			if err != nil {
				t.Fatal(err)
			}
			return r, r.Table().String(), len(r.Rows)
		},
	}
	for name, fn := range cases {
		t.Run(name, func(t *testing.T) {
			r, table, rows := fn()
			if rows == 0 {
				t.Fatal("no rows")
			}
			if lines := strings.Count(table, "\n"); lines < rows+2 {
				t.Errorf("table too short: %d lines for %d rows\n%s", lines, rows, table)
			}
			if err := r.Check(); err != nil {
				t.Errorf("check: %v", err)
			}
		})
	}
}

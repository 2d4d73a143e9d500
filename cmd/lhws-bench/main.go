// Command lhws-bench regenerates the paper's evaluation (Figure 11) and
// the bound-validation experiments of this reproduction. See EXPERIMENTS.md
// for the experiment index.
//
// Usage:
//
//	lhws-bench [-exp all] [-seed 1] [-markdown]
//	lhws-bench -exp fig11 [-delta 500] [-full] [-svg DIR]
//	lhws-bench -exp greedy|bound|lemmas|steals|variants|potential|uwidth
//	lhws-bench -exp wallclock|responsiveness|multiprog|scale
//	lhws-bench -exp goodput [-goodout BENCH_goodput.json] [-goodsmoke]
//
// Output is a fixed-width table per experiment plus a PASS/FAIL line for
// the experiment's shape check. -markdown switches tables to Markdown for
// pasting into documents. -exp all runs every experiment. -exp goodput
// writes the overload sweep to -goodout; -goodsmoke shrinks it to CI
// smoke scale and writes no JSON.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"
	"time"

	"lhws/internal/experiments"
	"lhws/internal/plot"
	"lhws/internal/stats"
)

type tabler interface {
	Table() *stats.Table
	Check() error
}

func main() {
	var (
		exp       = flag.String("exp", "all", "experiment: fig11, greedy, bound, lemmas, steals, variants, potential, uwidth, wallclock, responsiveness, multiprog, scale, goodput, or all of those")
		deltaMS   = flag.Float64("delta", 0, "fig11 panel latency in ms (500, 50, 1); 0 runs all three panels")
		full      = flag.Bool("full", false, "fig11 at the paper's full scale (n=5000) instead of the laptop scale (n=500)")
		seed      = flag.Uint64("seed", 1, "random seed")
		markdown  = flag.Bool("markdown", false, "render tables as Markdown")
		svgDir    = flag.String("svg", "", "directory to write Figure-11 panels as SVG plots (fig11 only)")
		goodOut   = flag.String("goodout", "BENCH_goodput.json", "output path for the -exp goodput JSON sweep")
		goodSmoke = flag.Bool("goodsmoke", false, "goodput at CI smoke scale (tiny load, no-collapse gate only, no JSON)")
	)
	flag.Parse()

	if goruntime.GOMAXPROCS(0) < 4 {
		goruntime.GOMAXPROCS(4) // let runtime workers interleave for -exp wallclock
	}

	ok := true
	run := func(name string, f func() (tabler, error)) {
		start := time.Now()
		r, err := f()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: error: %v\n", name, err)
			ok = false
			return
		}
		fmt.Printf("== %s (%.1fs) ==\n", name, time.Since(start).Seconds())
		if *markdown {
			fmt.Println(r.Table().Markdown())
		} else {
			fmt.Println(r.Table())
		}
		if err := r.Check(); err != nil {
			fmt.Printf("CHECK FAIL: %v\n\n", err)
			ok = false
		} else {
			fmt.Printf("CHECK PASS\n\n")
		}
	}

	fig11 := func(d float64) {
		cfg := experiments.ScaledFig11(d)
		if *full {
			cfg = experiments.FullFig11(d)
		}
		cfg.Seed = *seed
		run(fmt.Sprintf("fig11 δ=%vms (n=%d, fib=%d, δ=%d rounds)", d, cfg.N, cfg.FibWork,
			experiments.DeltaRounds(d, cfg.FibWork)),
			func() (tabler, error) {
				r, err := experiments.Fig11(cfg)
				if err == nil && *svgDir != "" {
					if werr := writeFig11SVG(*svgDir, d, r); werr != nil {
						fmt.Fprintf(os.Stderr, "svg: %v\n", werr)
					}
				}
				return r, err
			})
	}

	want := func(name string) bool { return *exp == name || *exp == "all" }

	if want("fig11") {
		if *deltaMS != 0 {
			fig11(*deltaMS)
		} else {
			for _, d := range []float64{500, 50, 1} {
				fig11(d)
			}
		}
	}
	if want("greedy") {
		run("greedy (Theorem 1)", func() (tabler, error) { return experiments.Greedy(*seed) })
	}
	if want("bound") {
		run("bound (Theorem 2)", func() (tabler, error) { return experiments.Bound(*seed) })
	}
	if want("lemmas") {
		run("lemmas (1, 7, Cor. 1, §5 U)", func() (tabler, error) { return experiments.Lemmas(*seed) })
	}
	if want("steals") {
		run("steal-policy ablation (§6)", func() (tabler, error) { return experiments.Steals(*seed) })
	}
	if want("variants") {
		run("design-variant ablation (§7)", func() (tabler, error) { return experiments.Variants(*seed) })
	}
	if want("potential") {
		run("potential function (§4)", func() (tabler, error) { return experiments.Potential(*seed) })
	}
	if want("uwidth") {
		run("suspension width (§5)", func() (tabler, error) { return experiments.UWidth(*seed) })
	}
	if want("wallclock") {
		run("wall-clock runtime", func() (tabler, error) { return experiments.Wallclock(experiments.ScaledWallclock()) })
	}
	if want("responsiveness") {
		run("interactive responsiveness", func() (tabler, error) {
			return experiments.Responsiveness(experiments.ScaledResponsiveness())
		})
	}
	if want("multiprog") {
		run("multiprogrammed environment (ABP)", func() (tabler, error) { return experiments.Multiprogrammed(*seed) })
	}
	if want("scale") {
		run("high-P scaling (beyond the paper's sweep)", func() (tabler, error) { return experiments.Scale(*seed) })
	}
	if want("goodput") {
		cfg := experiments.ScaledGoodput()
		label := "goodput under overload (shed vs noshed, 0.5x-4x)"
		if *goodSmoke {
			cfg = experiments.SmokeGoodput()
			label = "goodput under overload (smoke)"
		}
		run(label, func() (tabler, error) {
			r, err := experiments.GoodputBench(cfg)
			if err == nil && !*goodSmoke {
				if werr := writeJSON(*goodOut, r); werr != nil {
					fmt.Fprintf(os.Stderr, "json: %v\n", werr)
					ok = false
				}
			}
			return r, err
		})
	}

	if !ok {
		os.Exit(1)
	}
}

// writeJSON writes the experiment record (BENCH_goodput.json) as indented
// JSON.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// writeFig11SVG renders one Figure-11 panel in the paper's plot
// coordinates (self-speedup vs. processors, LHWS and WS curves).
func writeFig11SVG(dir string, deltaMS float64, r *experiments.Fig11Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	lhws := plot.Series{Name: "algo=LHWS"}
	ws := plot.Series{Name: "algo=WS"}
	for _, pt := range r.Points {
		lhws.X = append(lhws.X, float64(pt.P))
		lhws.Y = append(lhws.Y, pt.LHWSSpeedup)
		ws.X = append(ws.X, float64(pt.P))
		ws.Y = append(ws.Y, pt.WSSpeedup)
	}
	chart := &plot.Chart{
		Title:  fmt.Sprintf("Figure 11: δ = %vms (n=%d)", deltaMS, r.Cfg.N),
		XLabel: "proc",
		YLabel: "speedup",
		Series: []plot.Series{lhws, ws},
	}
	path := filepath.Join(dir, fmt.Sprintf("fig11_delta%gms.svg", deltaMS))
	if err := os.WriteFile(path, []byte(chart.SVG()), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

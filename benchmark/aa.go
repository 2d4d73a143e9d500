package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// runAA is the benchmark checking itself the way its acceptance does: two
// sets of n untraced runs per workload, each run a fresh process with its
// own seed. Per set and metric it takes the median and the spread (the
// distance between the quartiles as a share of the median). It fails when
// a spread other than setup_s's exceeds the metric's bound, or when the
// second set's median is worse than the first's by more than the bound,
// and returns the exit code.
func runAA(selected []workload, n int, seed uint64, seconds int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	code := 0
	fmt.Printf("%-13s %-18s %14s %8s %14s %8s %8s %7s\n",
		"workload", "metric", "median A", "spread A", "median B", "spread B", "B vs A", "bound")
	for _, w := range selected {
		var sets [2]map[string][]float64
		for s := range sets {
			sets[s] = make(map[string][]float64)
			for i := 0; i < n; i++ {
				runSeed := seed + uint64(s*n+i)
				out, err := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatUint(runSeed, 10),
					"-seconds", strconv.Itoa(seconds), "-trace", "0").Output()
				lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
				var r result
				if jerr := json.Unmarshal(lines[len(lines)-1], &r); err != nil || jerr != nil || !r.Correct {
					fmt.Printf("%s seed %d: run failed (%v %v)\n%s\n", w.name, runSeed, err, jerr, out)
					return 1
				}
				for name, m := range r.Metrics {
					sets[s][name] = append(sets[s][name], m.Value)
				}
			}
		}
		for _, d := range endToEnd {
			var med, spread [2]float64
			for s := range sets {
				q1, q3 := quartiles(sets[s][d.Name])
				med[s] = median(sets[s][d.Name])
				spread[s] = ratio(q3-q1, med[s])
			}
			worse := ratio(med[1]-med[0], med[0])
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if d.Name != "setup_s" && max(spread[0], spread[1]) > d.Bound {
				verdict, code = "  SPREAD OVER BOUND", 1
			}
			if worse > d.Bound {
				verdict, code = verdict+"  SETS DISAGREE", 1
			}
			fmt.Printf("%-13s %-18s %14.4f %7.1f%% %14.4f %7.1f%% %+7.1f%% %6.0f%%%s\n",
				w.name, d.Name, med[0], 100*spread[0], med[1], 100*spread[1], 100*worse, 100*d.Bound, verdict)
		}
	}
	return code
}

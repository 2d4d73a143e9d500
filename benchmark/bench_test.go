package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	samples := make([]int64, 2000)
	for i := range samples {
		samples[i] = int64(i + 1) // sorted 1..2000
	}
	if v, ok := percentile(samples, 0.50); v != 1000 || !ok {
		t.Errorf("p50 of 1..2000 = %v, %v; want 1000, true", v, ok)
	}
	if v, ok := percentile(samples, 0.99); v != 1980 || !ok {
		t.Errorf("p99 of 1..2000 = %v, %v; want 1980, true", v, ok)
	}
	// 1000 samples leave exactly ten beyond the p99; 999 leave nine.
	if _, ok := percentile(samples[:1000], 0.99); !ok {
		t.Error("p99 of 1000 samples refused; ten samples lie beyond it")
	}
	if v, ok := percentile(samples[:999], 0.99); ok || v != 990 {
		t.Errorf("p99 of 999 samples = %v, %v; want 990 and a refusal", v, ok)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples accepted")
	}
	if got := p50([]int64{5, 1, 3}); got != 3 {
		t.Errorf("p50 of unsorted {5,1,3} = %v; want 3", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{7, 1, 10, 4, 2, 9, 3, 8, 5, 6}
	if q1, q3 := quartiles(v); q1 != 2.75 || q3 != 8.25 || median(v) != 5.5 {
		t.Errorf("quartiles = %v, %v, median %v; want 2.75, 8.25, 5.5", q1, q3, median(v))
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "parent", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},  // overlaps a: together they cover 10..50
		{Name: "c", Start: 90, End: 130, Parent: 0}, // overhangs the parent: covers 90..100
		{Name: "grandchild", Start: 12, End: 18, Parent: 1},
	}
	want := []int64{100 - 40 - 10, 20 - 6, 30, 40, 6}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v; want %v", got, want)
	}
}

func TestLinkRequestsPartitionsRoundTrip(t *testing.T) {
	spans := linkRequests([]span{
		{Name: "io.read_wake", Start: 100, End: 140, Parent: -1, ID: 7},
		{Name: "serve.handler", Start: 140, End: 170, Parent: -1, ID: 7},
		{Name: "admit.admit", Start: 141, End: 150, Parent: 1, ID: 7},
		{Name: "io.flush", Start: 170, End: 230, Parent: -1, ID: 7}, // returns after the client has the reply
		{Name: "request", Start: 100, End: 200, Parent: -1, ID: 7},
	})
	self := selfTimes(spans)
	for i, s := range spans {
		if s.Name == "request" && self[i] != 0 {
			t.Errorf("request self time %d; its segments should cover it exactly", self[i])
		}
		if s.Name == "io.reply" && (s.Start != 170 || s.End != 200 || s.Parent != 4) {
			t.Errorf("io.reply = %+v; want 170..200 under the request", s)
		}
	}
	if len(spans) != 6 {
		t.Errorf("%d spans after linking; want 6 (io.reply added)", len(spans))
	}
}

// TestDeclarationsMatchBenchmarkJSON keeps BENCHMARK.json and the program
// saying the same thing.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decl.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %v\n code %v", decl.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(decl.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %v\n code %v", decl.PerLayer, perLayer)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in json, %d in code", len(decl.Workloads), len(workloads))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.name || decl.Workloads[i].Why != w.why {
			t.Errorf("workload %d: json %+v, code %s: %s", i, decl.Workloads[i], w.name, w.why)
		}
		if !name.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %q: bad name or why longer than 200", w.name)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or used twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// TestWorkloadsSmoke runs every workload briefly, untraced and traced: no
// operation may fail, and the metrics printed must be exactly the declared
// ones, each a finite non-negative number.
func TestWorkloadsSmoke(t *testing.T) {
	p := params{seed: 7, window: 300 * time.Millisecond, workers: 2}
	check := func(t *testing.T, r *result, defs []metricDef) {
		t.Helper()
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("correct=%v failed=%d attempted=%d errs=%v", r.Correct, r.Failed, r.Attempted, r.errs)
		}
		if len(r.Metrics) != len(defs) {
			t.Errorf("%d metrics reported, %d declared", len(r.Metrics), len(defs))
		}
		for _, d := range defs {
			m, ok := r.Metrics[d.Name]
			if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0 {
				t.Errorf("metric %s = %+v (present %v); want a finite non-negative %s", d.Name, m, ok, d.Unit)
			}
		}
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r := measure(w, p, 2, 1)
			check(t, r, endToEnd)
			for _, d := range endToEnd {
				if r.Metrics[d.Name].Value == 0 {
					t.Errorf("end-to-end metric %s is 0", d.Name)
				}
			}
			r = measureTraced(w, p, t.TempDir())
			check(t, r, perLayer)
			if r.Metrics["trace.spans"].Value == 0 || r.Metrics["trace.unbalanced_requests"].Value != 0 {
				t.Errorf("trace: %v spans, %v unbalanced requests", r.Metrics["trace.spans"].Value,
					r.Metrics["trace.unbalanced_requests"].Value)
			}
		})
	}
}

package main

import (
	"encoding/json"
	"os"
	"slices"
	"sort"
	"testing"
)

// benchSpec is the part of BENCHMARK.json the smoke test checks against.
type benchSpec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// tinyPlans run every workload end to end in a second or two.
var tinyPlans = map[string]plan{
	"raw_fresh":     {size: 256 << 10, streams: 2, epochs: 3, restores: 2, gcRounds: 2},
	"dedup_nightly": {size: 2 << 20, epochs: 3, restores: 2, gcRounds: 2},
	"retention":     {size: 1 << 20, streams: 2, epochs: 5},
}

// sampled names the metrics that summarize several samples.
var sampled = []string{"setup_s", "backup_s_p50", "backup_s_p90", "gc_s_p50", "recover_s"}

func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for _, w := range workloads {
		if !slices.Contains(names, w.name) {
			t.Errorf("workload %s missing from BENCHMARK.json", w.name)
		}
	}
	for _, name := range names {
		wl, ok := findWorkload(name)
		if !ok {
			t.Errorf("BENCHMARK.json names unknown workload %s", name)
			continue
		}
		for _, traced := range []bool{false, true} {
			res, err := run(wl, tinyPlans[name], 3, traced, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct %v, %d of %d failed: %v", name, traced, res.Correct, res.Failed, res.Attempted, res.problems)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			checkMetrics(t, name, res.Metrics, want)
			if !traced {
				if fr, ok := res.extra["fail_ratio"]; !ok || fr.Value != 0 {
					t.Errorf("%s: fail_ratio %v", name, fr)
				}
				for _, m := range sampled {
					if res.Metrics[m].n == 0 {
						t.Errorf("%s: %s has no samples", name, m)
					}
				}
				for k, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v", name, k, m.Value)
					}
				}
			} else if d := res.Metrics["trace.dropped_spans"].Value; d != 0 {
				t.Errorf("%s: %v spans dropped", name, d)
			}
		}
	}
}

func checkMetrics(t *testing.T, workload string, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	var wantNames, gotNames []string
	for _, w := range want {
		wantNames = append(wantNames, w.Name)
		if m, ok := got[w.Name]; ok && m.Unit != w.Unit {
			t.Errorf("%s: %s in %s, BENCHMARK.json says %s", workload, w.Name, m.Unit, w.Unit)
		}
	}
	for k := range got {
		gotNames = append(gotNames, k)
	}
	sort.Strings(wantNames)
	sort.Strings(gotNames)
	if !slices.Equal(gotNames, wantNames) {
		t.Errorf("%s: metrics %v, BENCHMARK.json lists %v", workload, gotNames, wantNames)
	}
}

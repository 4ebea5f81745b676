package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestSmokeEveryWorkload runs every workload end to end on small inputs
// in both modes, output checks included.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end smoke runs take tens of seconds")
	}
	for _, w := range append(workloads, unlisted...) {
		for _, traced := range []bool{false, true} {
			w, traced := w, traced
			name := w.Name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				window := 2 * time.Second
				if w.Name == "fresh" {
					// A burst in each of the traced run's phases.
					window = tracePhases * freshBurstEvery
				}
				opts := options{Workload: w.Name, Seed: 3, Window: window, Trace: traced,
					Smoke: true, Dir: t.TempDir()}
				out, err := w.Run(opts)
				if err != nil {
					t.Fatal(err)
				}
				res, err := buildResult(out, traced)
				if err != nil {
					t.Fatal(err)
				}
				want := len(e2eMetrics)
				if traced {
					want = len(layerMetrics)
				}
				if len(res.Metrics) != want || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("result %+v", res)
				}
				if !traced {
					for _, m := range e2eMetrics {
						if res.Metrics[m.Name].Value <= 0 {
							t.Errorf("%s = %v, want > 0", m.Name, res.Metrics[m.Name].Value)
						}
					}
				}
				if traced && res.Metrics["bench.reconcile_err_frac"].Value > reconcileBound {
					t.Errorf("reconcile residual %v", res.Metrics["bench.reconcile_err_frac"].Value)
				}
			})
		}
	}
}

// TestBenchmarkJSONMatchesMetricTables keeps BENCHMARK.json and the
// program's metric tables in step.
func TestBenchmarkJSONMatchesMetricTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("BENCHMARK.json not present:", err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		E2E       []metricDef             `json:"end_to_end"`
		Layers    []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d: %s vs %s", i, w.Name, workloads[i].Name)
		}
	}
	same := func(kind string, a, b []metricDef) {
		if len(a) != len(b) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, program %d", kind, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s %d: %+v vs %+v", kind, i, a[i], b[i])
			}
		}
	}
	same("end_to_end", b.E2E, e2eMetrics)
	same("per_layer", b.Layers, layerMetrics)
}

package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"testing"
)

// TestSmallRunEveryWorkload runs each workload at its tiny size, traced,
// and checks that every declared metric is reported with its unit and that
// no step failed.
func TestSmallRunEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rep, err := run(context.Background(), config{
				w: w, p: w.tiny, seed: 3, trace: true, outDir: t.TempDir(), log: io.Discard,
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.failed != 0 || rep.attempted == 0 {
				t.Fatalf("%d of %d step executions failed", rep.failed, rep.attempted)
			}
			if got := rep.e2e["ok_frac"].Value; got != 1 {
				t.Errorf("ok_frac = %v, want 1", got)
			}
			for name, unit := range e2eUnits {
				m, ok := rep.e2e[name]
				if !ok || m.Unit != unit {
					t.Errorf("end-to-end %s = %+v, want unit %s", name, m, unit)
				}
			}
			for _, name := range []string{"setup_s", "pass_s", "cpu_s", "step_geomean_ms", "peak_rss_mb", "alloc_mb"} {
				if rep.e2e[name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, rep.e2e[name].Value)
				}
			}
			names := layerNames()
			if len(rep.layers) != len(names) {
				t.Errorf("%d per-layer metrics, want %d", len(rep.layers), len(names))
			}
			for _, name := range names {
				if m, ok := rep.layers[name]; !ok || m.Unit != layerUnit(name) {
					t.Errorf("per-layer %s = %+v, want unit %s", name, m, layerUnit(name))
				}
			}
			if err := finite(rep.e2e); err != nil {
				t.Error(err)
			}
			if err := finite(rep.layers); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json's workload and
// metric lists in step with what the program reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := lookup(w.Name); !ok {
			t.Errorf("workload %s is not in the program", w.Name)
		}
	}
	if len(spec.EndToEnd) != len(e2eUnits) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(spec.EndToEnd), len(e2eUnits))
	}
	for _, m := range spec.EndToEnd {
		if e2eUnits[m.Name] != m.Unit {
			t.Errorf("end-to-end %s: BENCHMARK.json unit %q, program %q", m.Name, m.Unit, e2eUnits[m.Name])
		}
	}
	names := layerNames()
	if len(spec.PerLayer) != len(names) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(spec.PerLayer), len(names))
	}
	for i, m := range spec.PerLayer {
		if m.Name != names[i] || m.Unit != layerUnit(names[i]) {
			t.Errorf("per-layer %d: BENCHMARK.json %s (%s), program %s (%s)", i, m.Name, m.Unit, names[i], layerUnit(names[i]))
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "nope"},
		{"--workload", "sharded", "--trace", "2"},
		{"--workload", "sharded", "extra"},
	} {
		if code := cli(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("cli(%q) = %d, want 2", args, code)
		}
	}
}

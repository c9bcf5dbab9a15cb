package core

import (
	"bytes"
	"context"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"graphalign/internal/algo"
	"graphalign/internal/algo/grasp"
	"graphalign/internal/algo/isorank"
	"graphalign/internal/algo/sgwl"
	"graphalign/internal/assign"
	"graphalign/internal/gen"
	"graphalign/internal/noise"
	"graphalign/internal/obsv"
)

// eventSink retains every event for assertions.
type eventSink struct {
	mu     sync.Mutex
	events []obsv.Event
}

func (s *eventSink) Event(e obsv.Event) {
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

func (s *eventSink) byType(typ string) []obsv.Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []obsv.Event
	for _, e := range s.events {
		if e.Type == typ {
			out = append(out, e)
		}
	}
	return out
}

// tracePair builds one small alignment instance for span-content tests.
func tracePair(t *testing.T, n int) noise.Pair {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	base := gen.PowerlawCluster(n, 3, 0.3, rng)
	pair, err := noise.Apply(base, noise.OneWay, 0.01, noise.Options{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return pair
}

// TestTracingDeterminism is the acceptance criterion of the observability
// layer: at a fixed seed and worker count, an experiment's output table is
// byte-identical whether a tracer is attached or not. fig10's columns
// (accuracy, mnc, s3) are all seed-determined — unlike the wall-clock time
// columns of other figures, which differ across any two runs.
func TestTracingDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment driver test")
	}
	render := func(tr *obsv.Tracer) string {
		opts := tinyOptions()
		opts.Algorithms = []string{"NSD"}
		opts.Workers = 2
		opts.Tracer = tr
		tab, err := RunExperiment("fig10", opts)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tab.RenderCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	plain := render(nil)
	sink := &eventSink{}
	traced := render(obsv.New(sink).SetRegistry(obsv.NewRegistry()))
	if plain != traced {
		t.Errorf("tracing changed experiment output:\n--- plain ---\n%s\n--- traced ---\n%s", plain, traced)
	}
	if len(sink.byType("run_end")) == 0 {
		t.Error("traced run emitted no run_end events")
	}
	if plain2 := render(nil); plain2 != plain {
		t.Errorf("same seed produced different output across runs")
	}
}

// TestRunExperimentEvents checks the experiment- and cell-level telemetry:
// experiment_start/experiment_done bracketing and cell_done completed/total
// counts with an ETA field.
func TestRunExperimentEvents(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment driver test")
	}
	sink := &eventSink{}
	opts := tinyOptions()
	opts.Algorithms = []string{"NSD"}
	opts.Tracer = obsv.New(sink)
	if _, err := RunExperiment("fig9", opts); err != nil {
		t.Fatal(err)
	}
	starts := sink.byType("experiment_start")
	if len(starts) != 1 || starts[0].Name != "fig9" {
		t.Fatalf("experiment_start events = %+v", starts)
	}
	dones := sink.byType("experiment_done")
	if len(dones) != 1 {
		t.Fatalf("experiment_done events = %+v", dones)
	}
	if dones[0].Fields["rows"] == nil || dones[0].Fields["seconds"] == nil {
		t.Errorf("experiment_done missing fields: %+v", dones[0].Fields)
	}
	cells := sink.byType("cell_done")
	if len(cells) != len(highNoiseLevels) {
		t.Fatalf("cell_done events = %d, want %d", len(cells), len(highNoiseLevels))
	}
	last := cells[len(cells)-1]
	if last.Fields["done"] != float64(len(highNoiseLevels)) && last.Fields["done"] != len(highNoiseLevels) {
		t.Errorf("last cell_done done = %v, want %d", last.Fields["done"], len(highNoiseLevels))
	}
	if _, ok := last.Fields["eta_s"]; !ok {
		t.Errorf("cell_done missing eta_s: %+v", last.Fields)
	}
	// A progress-only sink sees completed/total progress lines.
	var lines []string
	opts2 := tinyOptions()
	opts2.Algorithms = []string{"NSD"}
	opts2.Tracer = obsv.New(obsv.ProgressFunc(func(msg string) {
		lines = append(lines, msg)
	}))
	if _, err := RunExperiment("fig9", opts2); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, l := range lines {
		if strings.Contains(l, "cell 6/6 done") {
			found = true
		}
	}
	if !found {
		t.Errorf("progress lines missing cell counts: %q", lines)
	}
}

// runTraced is an untimed run reporting through tr.
func runTraced(a algo.Aligner, pair noise.Pair, method assign.Method, tr *obsv.Tracer) RunResult {
	return runOnce(context.Background(), a, pair, method, RunSpec{Tracer: tr})
}

// TestRunInstanceTracedSpans checks the span tree of a single run: the
// similarity/assign/metrics framework phases plus the algorithm's own inner
// phases, all parented to the run span.
func TestRunInstanceTracedSpans(t *testing.T) {
	pair := tracePair(t, 80)
	cases := []struct {
		name        string
		build       func() algo.Aligner
		innerPhases []string
	}{
		{"GRASP", func() algo.Aligner { return grasp.New() },
			[]string{"eigendecomposition", "heat_kernels", "base_alignment", "feature_distance"}},
		// LeafSize is lowered so the 80-node instance actually recurses;
		// the default 384 would go straight to one leaf solve.
		{"S-GWL", func() algo.Aligner { s := sgwl.New(); s.LeafSize = 16; return s },
			[]string{"partition", "leaf_solve"}},
		{"IsoRank", func() algo.Aligner { return isorank.New() },
			[]string{"power_iteration"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sink := &eventSink{}
			tr := obsv.New(sink).SetRegistry(obsv.NewRegistry())
			res := runTraced(tc.build(), pair, assign.JonkerVolgenant, tr)
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			runStarts := sink.byType("run_start")
			if len(runStarts) != 1 {
				t.Fatalf("run_start events = %d, want 1", len(runStarts))
			}
			runSpan := runStarts[0].Span
			phases := make(map[string]obsv.Event)
			for _, e := range sink.byType("phase") {
				phases[e.Name] = e
			}
			for _, want := range append([]string{"similarity", "assign", "metrics"}, tc.innerPhases...) {
				e, ok := phases[want]
				if !ok {
					t.Errorf("missing phase %q (have %v)", want, phaseNames(phases))
					continue
				}
				if e.Parent != runSpan {
					t.Errorf("phase %q parent = %d, want run span %d", want, e.Parent, runSpan)
				}
				if e.DurNS < 0 {
					t.Errorf("phase %q has negative duration", want)
				}
			}
			ends := sink.byType("run_end")
			if len(ends) != 1 || ends[0].Span != runSpan || ends[0].DurNS <= 0 {
				t.Errorf("run_end = %+v", ends)
			}
			// IsoRank annotates convergence on its power iteration.
			if tc.name == "IsoRank" {
				f := phases["power_iteration"].Fields
				if f["iterations"] == nil || f["converged"] == nil {
					t.Errorf("power_iteration fields = %+v", f)
				}
			}
		})
	}
}

func phaseNames(m map[string]obsv.Event) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestRunInstanceTracedNilTracer pins the no-tracer path: identical scores
// with and without a tracer, and no panic from the nil-span plumbing.
func TestRunInstanceTracedNilTracer(t *testing.T) {
	pair := tracePair(t, 60)
	plain := runOnce(context.Background(), isorank.New(), pair, assign.JonkerVolgenant, RunSpec{})
	traced := runTraced(isorank.New(), pair, assign.JonkerVolgenant,
		obsv.New(&eventSink{}))
	if plain.Err != nil || traced.Err != nil {
		t.Fatal(plain.Err, traced.Err)
	}
	if plain.Scores != traced.Scores {
		t.Errorf("tracing changed scores: %+v vs %+v", plain.Scores, traced.Scores)
	}
}

// TestRunCounters checks the registry side of a traced run.
func TestRunCounters(t *testing.T) {
	pair := tracePair(t, 60)
	reg := obsv.NewRegistry()
	tr := obsv.New().SetRegistry(reg)
	runTraced(isorank.New(), pair, assign.JonkerVolgenant, tr)
	runTraced(isorank.New(), pair, assign.JonkerVolgenant, tr)
	if v := reg.Counter("runs_total").Value(); v != 2 {
		t.Errorf("runs_total = %d, want 2", v)
	}
	if n := reg.Histogram("run_seconds", obsv.DurationBuckets()).Snapshot().Count; n != 2 {
		t.Errorf("run_seconds count = %d, want 2", n)
	}
	if n := reg.Histogram("lap_solve_size", obsv.SizeBuckets()).Snapshot().Count; n != 2 {
		t.Errorf("lap_solve_size count = %d, want 2", n)
	}
}

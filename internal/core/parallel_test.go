package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"graphalign/internal/algo"
	"graphalign/internal/assign"
	"graphalign/internal/gen"
	"graphalign/internal/noise"
	"graphalign/internal/obsv"
)

// stripVolatile drops wall-clock and memory columns — the only values that
// legitimately differ between two runs of the same experiment. Everything
// left (labels, scores) must be byte-identical across worker counts.
func stripVolatile(tab *Table) {
	kept := tab.ValueCols[:0]
	for _, c := range tab.ValueCols {
		if strings.Contains(c, "time") || strings.Contains(c, "mem") {
			continue
		}
		kept = append(kept, c)
	}
	tab.ValueCols = kept
}

func renderStripped(t *testing.T, tab *Table) []byte {
	t.Helper()
	stripVolatile(tab)
	var buf bytes.Buffer
	if err := tab.RenderCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWorkersDeterminism asserts the headline guarantee of the parallel
// runner: the smallest synthetic figure renders byte-identical tables
// (scores and labels; times are stripped) with Workers=1 and Workers=8 at
// the same seed. The Workers=8 run also exercises the pool under -race.
func TestWorkersDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run in -short mode")
	}
	run := func(workers int) []byte {
		opts := testOptions()
		opts.Reps = 2
		opts.Workers = workers
		tab, err := runModelFigure(opts, gen.BA)
		if err != nil {
			t.Fatal(err)
		}
		return renderStripped(t, tab)
	}
	serial := run(1)
	pooled := run(8)
	if !bytes.Equal(serial, pooled) {
		t.Errorf("Workers=1 and Workers=8 tables differ:\n--- serial ---\n%s\n--- workers=8 ---\n%s", serial, pooled)
	}
}

// TestNoisyInstancesIndependentOfWorkers pins the seed-derivation contract:
// instance generation must yield identical graphs whether reps are built
// sequentially or concurrently.
func TestNoisyInstancesIndependentOfWorkers(t *testing.T) {
	base := gen.ErdosRenyi(80, 0.1, rand.New(rand.NewSource(9)))
	build := func(workers int) []noise.Pair {
		opts := testOptions()
		opts.Reps = 6
		opts.Workers = workers
		pairs, err := noisyInstances(base, noise.TwoWay, 0.05, opts, noise.Options{}, "det-test")
		if err != nil {
			t.Fatal(err)
		}
		return pairs
	}
	a, b := build(1), build(8)
	for r := range a {
		if !reflect.DeepEqual(a[r].TrueMap, b[r].TrueMap) {
			t.Fatalf("rep %d: permutations differ across worker counts", r)
		}
		if !reflect.DeepEqual(a[r].Target.Edges(), b[r].Target.Edges()) {
			t.Fatalf("rep %d: target graphs differ across worker counts", r)
		}
		if !reflect.DeepEqual(a[r].Source.Edges(), b[r].Source.Edges()) {
			t.Fatalf("rep %d: source graphs differ across worker counts", r)
		}
	}
	// Reps must be genuinely independent, not copies of one stream.
	if reflect.DeepEqual(a[0].TrueMap, a[1].TrueMap) {
		t.Error("distinct reps produced identical permutations")
	}
}

// TestInstanceSeedDistinct spot-checks the splitmix derivation: cells,
// noise types, levels and reps must all move the seed.
func TestInstanceSeedDistinct(t *testing.T) {
	o := Options{Seed: 42}
	base := o.instanceSeed("cell", noise.OneWay, 0.01, 0)
	seen := map[int64]string{base: "base"}
	for name, s := range map[string]int64{
		"rep":   o.instanceSeed("cell", noise.OneWay, 0.01, 1),
		"cell":  o.instanceSeed("cell2", noise.OneWay, 0.01, 0),
		"noise": o.instanceSeed("cell", noise.TwoWay, 0.01, 0),
		"level": o.instanceSeed("cell", noise.OneWay, 0.02, 0),
		"seed":  (&Options{Seed: 43}).instanceSeed("cell", noise.OneWay, 0.01, 0),
		"shift": o.instanceSeed("cellx", noise.Type("one-way2"), 0.01, 0), // boundary shift
	} {
		if prev, dup := seen[s]; dup {
			t.Errorf("seed collision between %q and %q", name, prev)
		}
		seen[s] = name
	}
	if got := o.instanceSeed("cell", noise.OneWay, 0.01, 0); got != base {
		t.Error("instanceSeed is not a pure function of its inputs")
	}
}

// TestRunAveragedParallelRace runs a small cell with a saturated pool; its
// value is mostly under `go test -race`, where any unsynchronized access in
// the fan-out path (results slice, progress callback, shared graphs) fails
// the build.
func TestRunAveragedParallelRace(t *testing.T) {
	opts := testOptions()
	opts.Reps = 8
	opts.Workers = 8
	var progressLines int
	opts.Tracer = obsv.New(obsv.ProgressFunc(func(string) { progressLines++ }))
	base := gen.PowerlawCluster(60, 3, 0.3, rand.New(rand.NewSource(11)))
	pairs, err := noisyInstances(base, noise.OneWay, 0.02, opts, noise.Options{}, "race-test")
	if err != nil {
		t.Fatal(err)
	}
	mean, err := runAveraged(opts, "race-test", "NSD", pairs, assign.JonkerVolgenant)
	if err != nil {
		t.Fatal(err)
	}
	if mean.Err != nil {
		t.Fatal(mean.Err)
	}
	if mean.Scores.Accuracy <= 0 {
		t.Errorf("accuracy = %v", mean.Scores.Accuracy)
	}
	// The serialized progress path is exercised via the tracer.
	opts.Tracer.Progress(fmt.Sprintf("done %d", progressLines))
}

// TestMemProfilePopulatesAllocBytes pins the measurement-mode contract:
// plain runs leave AllocBytes zero, profiled runs populate it, and
// Options.MemProfile routes the fan-out through the profiled path.
func TestMemProfilePopulatesAllocBytes(t *testing.T) {
	p := smallPair(t)
	res := runOnce(context.Background(), mustAligner(t, "NSD"), p, assign.JonkerVolgenant, RunSpec{})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.AllocBytes != 0 {
		t.Errorf("plain RunInstance measured AllocBytes = %d, want 0", res.AllocBytes)
	}
	prof := RunInstanceProfiled(context.Background(), instance(mustAligner(t, "NSD")), p, assign.JonkerVolgenant, RunSpec{})
	if prof.Err != nil {
		t.Fatal(prof.Err)
	}
	if prof.AllocBytes == 0 {
		t.Error("profiled run measured no allocations")
	}
	opts := testOptions()
	opts.MemProfile = true
	mean, err := runAveraged(opts, "memprofile-test", "NSD", []noise.Pair{p, p}, assign.JonkerVolgenant)
	if err != nil {
		t.Fatal(err)
	}
	if mean.Err != nil {
		t.Fatal(mean.Err)
	}
	if mean.AllocBytes == 0 {
		t.Error("MemProfile fan-out did not populate AllocBytes")
	}
}

func mustAligner(t *testing.T, name string) algo.Aligner {
	t.Helper()
	a, err := testFactory(name)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

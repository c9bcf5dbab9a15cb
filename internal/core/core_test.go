package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"graphalign/internal/algo"
	"graphalign/internal/algo/isorank"
	"graphalign/internal/algo/nsd"
	"graphalign/internal/assign"
	"graphalign/internal/gen"
	"graphalign/internal/metrics"
	"graphalign/internal/noise"
)

// testFactory resolves a small, fast subset of algorithms for framework
// tests.
func testFactory(name string) (algo.Aligner, error) {
	switch name {
	case "IsoRank":
		return isorank.New(), nil
	case "NSD":
		return nsd.New(), nil
	default:
		return nil, fmt.Errorf("test factory: unknown %q", name)
	}
}

func testOptions() Options {
	o := DefaultOptions(testFactory)
	o.Scale = 0.1
	o.Reps = 1
	o.Algorithms = []string{"IsoRank", "NSD"}
	o.PerRunBudget = time.Minute
	return o
}

func smallPair(t *testing.T) noise.Pair {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	g := gen.PowerlawCluster(60, 3, 0.3, rng)
	p, err := noise.Apply(g, noise.OneWay, 0.02, noise.Options{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRunInstance(t *testing.T) {
	p := smallPair(t)
	res := runOnce(context.Background(), isorank.New(), p, assign.JonkerVolgenant, RunSpec{})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Algorithm != "IsoRank" || res.Assign != assign.JonkerVolgenant {
		t.Error("metadata wrong")
	}
	if res.Scores.Accuracy <= 0.3 {
		t.Errorf("accuracy %v suspiciously low", res.Scores.Accuracy)
	}
	if res.SimilarityTime <= 0 {
		t.Error("similarity time not measured")
	}
}

func TestRunInstanceNNOneToOne(t *testing.T) {
	p := smallPair(t)
	res := runOnce(context.Background(), isorank.New(), p, assign.NearestNeighbor, RunSpec{})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	// MNC of a valid one-to-one mapping on near-isomorphic graphs must be
	// well above zero; mostly this asserts the NN path doesn't crash.
	if res.Scores.MNC < 0 {
		t.Error("MNC negative")
	}
}

func TestAverage(t *testing.T) {
	runs := []RunResult{
		{Algorithm: "A", Scores: scores(0.5), SimilarityTime: time.Second},
		{Algorithm: "A", Scores: scores(1.0), SimilarityTime: 3 * time.Second},
		{Algorithm: "A", Err: errors.New("failed")},
	}
	mean, ok := Average(runs)
	if ok != 2 {
		t.Fatalf("ok = %d, want 2", ok)
	}
	if mean.Scores.Accuracy != 0.75 {
		t.Errorf("mean accuracy = %v", mean.Scores.Accuracy)
	}
	if mean.SimilarityTime != 2*time.Second {
		t.Errorf("mean time = %v", mean.SimilarityTime)
	}
	// All-failed case.
	_, ok = Average([]RunResult{{Err: errors.New("x")}})
	if ok != 0 {
		t.Error("all-failed should report ok=0")
	}
	if _, ok := Average(nil); ok != 0 {
		t.Error("empty input should report ok=0")
	}
}

func TestAverageAllFailedJoinsDistinctErrors(t *testing.T) {
	// Regression: an all-failed cell used to surface only runs[0].Err,
	// misreporting mixed-cause failures.
	timeout := errors.New("similarity: timeout")
	singular := errors.New("assignment: singular matrix")
	mean, ok := Average([]RunResult{
		{Algorithm: "A", Err: timeout},
		{Algorithm: "A", Err: singular},
		{Algorithm: "A", Err: timeout}, // duplicate cause must not repeat
	})
	if ok != 0 {
		t.Fatalf("ok = %d, want 0", ok)
	}
	if mean.Err == nil {
		t.Fatal("all-failed mean must carry an error")
	}
	msg := mean.Err.Error()
	if !strings.Contains(msg, "timeout") || !strings.Contains(msg, "singular matrix") {
		t.Errorf("joined error %q missing a distinct cause", msg)
	}
	if strings.Count(msg, "timeout") != 1 {
		t.Errorf("joined error %q repeats a duplicate cause", msg)
	}
	// A single distinct cause keeps the original error value (and its wrap
	// chain) rather than a re-packaged copy.
	mean, _ = Average([]RunResult{{Err: timeout}, {Err: timeout}})
	if !errors.Is(mean.Err, timeout) {
		t.Errorf("single-cause error not preserved: %v", mean.Err)
	}
}

func scores(v float64) metrics.Scores {
	return metrics.Scores{Accuracy: v}
}

func TestTableRender(t *testing.T) {
	tab := NewTable("demo", []string{"x"}, []string{"accuracy", "sim_time", "mem"})
	tab.Add(map[string]string{"x": "10"}, map[string]float64{"accuracy": 0.5, "sim_time": 1.25, "mem": 2 * 1024 * 1024})
	tab.Add(map[string]string{"x": "2"}, map[string]float64{"accuracy": 1})
	tab.Sort()
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "demo") {
		t.Error("title missing")
	}
	if !strings.Contains(out, "1.250s") {
		t.Error("time formatting missing")
	}
	if !strings.Contains(out, "2.0MB") {
		t.Error("memory formatting missing")
	}
	if !strings.Contains(out, "-") {
		t.Error("missing values should render as -")
	}
	// Numeric-aware sort: "2" before "10".
	if strings.Index(out, "\n2 ") > strings.Index(out, "\n10") && strings.Index(out, "\n10") != -1 {
		t.Errorf("rows not numerically sorted:\n%s", out)
	}
}

// TestTableAddRun checks the column binding: each value column reads its
// RunResult field, and a column with no binding panics.
func TestTableAddRun(t *testing.T) {
	r := RunResult{
		Scores:         metrics.Scores{Accuracy: 0.5, S3: 0.25, MNC: 0.125},
		SimilarityTime: 1500 * time.Millisecond,
		AssignTime:     250 * time.Millisecond,
		AllocBytes:     4096,
	}
	tab := NewTable("", []string{"x"}, []string{"accuracy", "s3", "mnc", "sim_time", "assign_time", "mem"})
	tab.addRun(map[string]string{"x": "1"}, r)
	want := map[string]float64{"accuracy": 0.5, "s3": 0.25, "mnc": 0.125, "sim_time": 1.5, "assign_time": 0.25, "mem": 4096}
	for c, v := range want {
		if got := tab.Rows[0].Values[c]; got != v {
			t.Errorf("%s = %v, want %v", c, got, v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("addRun accepted a column with no RunResult field")
		}
	}()
	NewTable("", []string{"x"}, []string{"ecc"}).addRun(nil, r)
}

func TestExperimentRegistry(t *testing.T) {
	ids := IDs()
	wantIDs := []string{
		"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
		"fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
		"table1", "table3",
		"ablation-isorank-prior", "ablation-lrea-rank", "ablation-lrea-vs-eigenalign", "ablation-grasp-params",
		"ablation-sgwl-beta", "ablation-cone-dim", "ablation-adaptive", "excluded-netalign",
	}
	have := make(map[string]bool, len(ids))
	for _, id := range ids {
		have[id] = true
	}
	for _, id := range wantIDs {
		if !have[id] {
			t.Errorf("experiment %q missing from registry", id)
		}
	}
	if _, err := Get("fig2"); err != nil {
		t.Error(err)
	}
	if _, err := Get("nope"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestTable1Experiment(t *testing.T) {
	e, err := Get("table1")
	if err != nil {
		t.Fatal(err)
	}
	tab, err := e.Run(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 9 {
		t.Fatalf("table1 has %d rows, want 9 algorithms", len(tab.Rows))
	}
}

func TestModelFigureSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run in -short mode")
	}
	opts := testOptions()
	tab, err := runModelFigure(opts, gen.BA)
	if err != nil {
		t.Fatal(err)
	}
	// 3 noise types x 6 levels x 2 algorithms = 36 rows (all should run).
	if len(tab.Rows) != 36 {
		t.Fatalf("rows = %d, want 36", len(tab.Rows))
	}
	// Zero-noise accuracy for IsoRank on BA should be near 1.
	for _, row := range tab.Rows {
		if row.Labels["level"] == "0.00" && row.Labels["algorithm"] == "IsoRank" {
			if row.Values["accuracy"] < 0.8 {
				t.Errorf("IsoRank zero-noise accuracy %v", row.Values["accuracy"])
			}
		}
	}
}

func TestScaledN(t *testing.T) {
	o := Options{Scale: 0.5}
	if got := o.scaledN(1000); got != 500 {
		t.Errorf("scaledN = %d", got)
	}
	o.Scale = 0.01
	if got := o.scaledN(1000); got != 100 {
		t.Errorf("floor not applied: %d", got)
	}
	o.Scale = 2
	if got := o.scaledN(1000); got != 1000 {
		t.Errorf("cap not applied: %d", got)
	}
	o.Scale = 0
	if got := o.scaledN(1000); got != 200 {
		t.Errorf("default scale not applied: %d", got)
	}
}

func TestEffectiveScale(t *testing.T) {
	for _, c := range []struct{ in, want float64 }{
		{0, 0.2}, {-1, 0.2}, {0.3, 0.3}, {5, 1},
	} {
		o := Options{Scale: c.in}
		if got := o.effectiveScale(); got != c.want {
			t.Errorf("effectiveScale(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestScaleSizes(t *testing.T) {
	o := Options{Scale: 1}
	sizes := scaleSizes(o)
	if sizes[len(sizes)-1] != 1<<16 {
		t.Errorf("full scale should top out at 2^16, got %d", sizes[len(sizes)-1])
	}
	o.Scale = 0.2
	small := scaleSizes(o)
	if small[len(small)-1] >= sizes[len(sizes)-1] {
		t.Error("scaled sizes should shrink")
	}
	for i := 1; i < len(small); i++ {
		if small[i] != small[i-1]*2 {
			t.Error("sizes must double")
		}
	}
}

func TestTableRenderCSV(t *testing.T) {
	tab := NewTable("demo", []string{"x"}, []string{"accuracy"})
	tab.Add(map[string]string{"x": "a,b"}, map[string]float64{"accuracy": 0.5})
	tab.Add(map[string]string{"x": "c"}, nil)
	var buf bytes.Buffer
	if err := tab.RenderCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "x,accuracy\n") {
		t.Errorf("missing CSV header:\n%s", out)
	}
	if !strings.Contains(out, `"a,b",0.5`) {
		t.Errorf("comma label not quoted:\n%s", out)
	}
	if !strings.Contains(out, "c,\n") {
		t.Errorf("missing value should be empty field:\n%s", out)
	}
}

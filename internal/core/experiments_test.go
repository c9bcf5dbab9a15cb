package core

import (
	"strings"
	"testing"
	"time"

	"graphalign/internal/obsv"
)

// tinyOptions keeps experiment-driver tests fast: minimum sizes, one rep,
// two cheap algorithms.
func tinyOptions() Options {
	o := DefaultOptions(testFactory)
	o.Scale = 0.05
	o.Reps = 1
	o.MaxNodes = 120
	o.Algorithms = []string{"IsoRank", "NSD"}
	o.PerRunBudget = time.Minute
	return o
}

// runExperiment is a helper asserting an experiment completes and yields
// rows.
func runExperiment(t *testing.T, id string, opts Options) *Table {
	t.Helper()
	e, err := Get(id)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := e.Run(opts)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if len(tab.Rows) == 0 {
		t.Fatalf("%s: no rows", id)
	}
	return tab
}

func TestFig1AssignmentSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment driver test")
	}
	tab := runExperiment(t, "fig1", tinyOptions())
	// Both datasets, both algorithms, all four assignment methods present.
	seenAssign := map[string]bool{}
	seenDataset := map[string]bool{}
	for _, r := range tab.Rows {
		seenAssign[r.Labels["assign"]] = true
		seenDataset[r.Labels["dataset"]] = true
	}
	for _, m := range []string{"NN", "SG", "MWM", "JV"} {
		if !seenAssign[m] {
			t.Errorf("fig1 missing assignment method %s", m)
		}
	}
	if !seenDataset["arenas"] || !seenDataset["powerlaw"] {
		t.Errorf("fig1 datasets incomplete: %v", seenDataset)
	}
}

func TestFig9TimeAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment driver test")
	}
	tab := runExperiment(t, "fig9", tinyOptions())
	for _, r := range tab.Rows {
		if _, ok := r.Values["sim_time"]; !ok {
			t.Fatal("fig9 rows must carry sim_time")
		}
	}
}

func TestFig10RealNoise(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment driver test")
	}
	tab := runExperiment(t, "fig10", tinyOptions())
	seen := map[string]bool{}
	for _, r := range tab.Rows {
		seen[r.Labels["dataset"]] = true
	}
	for _, ds := range []string{"highschool", "voles", "multimagna"} {
		if !seen[ds] {
			t.Errorf("fig10 missing dataset %s", ds)
		}
	}
	// The 99% variant should be easier than the 80% one for IsoRank.
	acc := map[string]float64{}
	for _, r := range tab.Rows {
		if r.Labels["dataset"] == "highschool" && r.Labels["algorithm"] == "IsoRank" {
			acc[r.Labels["fraction"]] = r.Values["accuracy"]
		}
	}
	if len(acc) == 4 && acc["0.99"] < acc["0.80"] {
		t.Errorf("99%% variant (%v) should beat 80%% variant (%v)", acc["0.99"], acc["0.80"])
	}
}

func TestScalabilityExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment driver test")
	}
	opts := tinyOptions()
	opts.Algorithms = []string{"NSD"}
	for _, id := range []string{"fig11", "fig12", "fig13", "fig14"} {
		tab := runExperiment(t, id, opts)
		col := "sim_time"
		if id == "fig13" || id == "fig14" {
			col = "mem"
		}
		for _, r := range tab.Rows {
			if r.Labels["algorithm"] == "GRAAL" {
				t.Errorf("%s must exclude GRAAL (paper: quintic preprocessing)", id)
			}
			if v, ok := r.Values[col]; !ok || v < 0 {
				t.Errorf("%s: bad %s value in row %v", id, col, r)
			}
		}
	}
}

func TestScalabilityBudgetSkips(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment driver test")
	}
	opts := tinyOptions()
	opts.Algorithms = []string{"IsoRank"}
	opts.PerRunBudget = time.Nanosecond // everything over budget after first point
	tab := runExperiment(t, "fig11", opts)
	// Only the first size should have produced a row.
	if len(tab.Rows) != 1 {
		t.Errorf("budget skip produced %d rows, want 1", len(tab.Rows))
	}
}

func TestFig15And16Density(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment driver test")
	}
	opts := tinyOptions()
	tab15 := runExperiment(t, "fig15", opts)
	sweeps := map[string]bool{}
	for _, r := range tab15.Rows {
		sweeps[r.Labels["sweep"]] = true
	}
	if !sweeps["p-sweep"] || !sweeps["k-sweep"] {
		t.Errorf("fig15 sweeps incomplete: %v", sweeps)
	}
	tab16 := runExperiment(t, "fig16", opts)
	regimes := map[string]bool{}
	for _, r := range tab16.Rows {
		regimes[r.Labels["regime"]] = true
	}
	if !regimes["constant-degree"] || !regimes["constant-density"] {
		t.Errorf("fig16 regimes incomplete: %v", regimes)
	}
}

func TestTable3Summary(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment driver test")
	}
	tab := runExperiment(t, "table3", tinyOptions())
	if len(tab.Rows) != 2 {
		t.Fatalf("table3 rows = %d, want one per algorithm", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		if _, ok := r.Values["mean"]; !ok {
			t.Error("table3 rows must carry the mean column")
		}
	}
}

func TestRealNoiseExperimentsSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment driver test")
	}
	opts := tinyOptions()
	opts.Algorithms = []string{"NSD"}
	tab7 := runExperiment(t, "fig7", opts)
	if len(tab7.Rows) != 3*3*6 {
		t.Errorf("fig7 rows = %d, want 54 (3 datasets x 3 noise x 6 levels)", len(tab7.Rows))
	}
	tab8 := runExperiment(t, "fig8", opts)
	// 10 datasets x 1 noise type x 6 levels.
	if len(tab8.Rows) != 60 {
		t.Errorf("fig8 rows = %d, want 60", len(tab8.Rows))
	}
}

func TestAblationExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy ablation drivers")
	}
	opts := tinyOptions()
	for _, id := range []string{
		"ablation-isorank-prior", "ablation-lrea-rank",
		"ablation-lrea-vs-eigenalign", "ablation-grasp-params",
		"ablation-sgwl-beta", "ablation-cone-dim", "ablation-adaptive",
		"excluded-netalign",
	} {
		tab := runExperiment(t, id, opts)
		if len(tab.Rows) < 2 {
			t.Errorf("%s produced %d rows", id, len(tab.Rows))
		}
	}
	// The IsoRank prior ablation must show the degree prior beating the
	// uniform prior (the study's Section 6.1 claim).
	tab := runExperiment(t, "ablation-isorank-prior", opts)
	accs := map[string]float64{}
	for _, r := range tab.Rows {
		accs[r.Labels["prior"]] = r.Values["accuracy"]
	}
	if accs["degree-similarity"] < accs["uniform"] {
		t.Errorf("degree prior (%v) should beat uniform (%v)", accs["degree-similarity"], accs["uniform"])
	}
}

func TestProgressCallback(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment driver test")
	}
	opts := tinyOptions()
	opts.Algorithms = []string{"NSD"}
	var lines []string
	opts.Tracer = obsv.New(obsv.ProgressFunc(func(msg string) {
		lines = append(lines, msg)
	}))
	runExperiment(t, "fig9", opts)
	if len(lines) == 0 {
		t.Error("progress sink never fired")
	}
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "fig9") {
		t.Errorf("progress lines unexpected: %q", joined)
	}
}

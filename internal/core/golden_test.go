package core

import (
	"bytes"
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"graphalign/internal/algo"
	"graphalign/internal/algo/lrea"
	"graphalign/internal/algo/nsd"
	"graphalign/internal/cache"
	"graphalign/internal/obsv"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden fixtures from current output")

// goldenOptions is the pinned configuration of the golden regression grid:
// a small two-algorithm fig10 run whose full CSV output is committed as a
// fixture. fig10 is used because its value columns are all quality scores
// (accuracy, mnc, s3) — no wall-clock columns — so the CSV is byte-stable
// across machines.
func goldenOptions() Options {
	factory := func(name string) (algo.Aligner, error) {
		switch name {
		case "NSD":
			return nsd.New(), nil
		case "LREA":
			return lrea.New(), nil
		}
		return nil, fmt.Errorf("golden factory: unknown algorithm %q", name)
	}
	opts := DefaultOptions(factory)
	opts.Scale = 0.05
	opts.Reps = 1
	opts.Seed = 42
	opts.Workers = 2
	opts.MaxNodes = 120
	opts.Algorithms = []string{"NSD", "LREA"}
	return opts
}

func renderGolden(t *testing.T, opts Options) []byte {
	t.Helper()
	table, err := RunExperiment("fig10", opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := table.RenderCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenFig10 regenerates the pinned-seed golden grid and fails on any
// byte difference from the committed fixture. A diff means an algorithm,
// the noise model, the seed derivation, or the CSV renderer changed
// behavior; if the change is intentional, regenerate the fixture with
//
//	go test ./internal/core -run TestGoldenFig10 -update-golden
//
// and commit the result alongside the change that explains it.
func TestGoldenFig10(t *testing.T) {
	if testing.Short() {
		t.Skip("golden grid runs two algorithms over three datasets")
	}
	got := renderGolden(t, goldenOptions())
	path := filepath.Join("testdata", "golden_fig10.csv")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden fixture rewritten: %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture (regenerate with -update-golden): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("golden output drifted from %s\n--- want (%d bytes)\n%s\n--- got (%d bytes)\n%s",
			path, len(want), want, len(got), got)
	}
}

// TestGoldenFig10CachedByteIdentical reruns the golden grid with the
// artifact cache enabled — both unbounded and via the CacheBudgetBytes knob
// RunExperiment wires up — and requires CSV output byte-identical to the
// committed fixture, proving the tentpole contract end-to-end: caching never
// changes results.
func TestGoldenFig10CachedByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("golden grid runs two algorithms over three datasets")
	}
	path := filepath.Join("testdata", "golden_fig10.csv")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture (regenerate with -update-golden): %v", err)
	}

	withCache := goldenOptions()
	withCache.Cache = cache.New(0)
	if got := renderGolden(t, withCache); !bytes.Equal(got, want) {
		t.Fatalf("cache-on output differs from cache-off fixture\n--- want\n%s\n--- got\n%s", want, got)
	}
	if withCache.Cache.Len() == 0 {
		t.Fatal("cache unused: the aligners never drew artifacts through it")
	}

	withBudget := goldenOptions()
	withBudget.CacheBudgetBytes = 8 << 20
	if got := renderGolden(t, withBudget); !bytes.Equal(got, want) {
		t.Fatal("CacheBudgetBytes run differs from cache-off fixture")
	}
}

// wallClockCols are the value columns that measure time or memory rather
// than alignment quality; TestGoldenAllExperiments masks them.
var wallClockCols = map[string]bool{"sim_time": true, "assign_time": true, "mem": true}

// maskedCSV renders table as CSV with every non-empty cell of a wall-clock
// column replaced by "*", so the result depends on the computation alone.
// An empty cell (a value the row does not have) stays empty.
func maskedCSV(t *testing.T, table *Table) []byte {
	t.Helper()
	var raw bytes.Buffer
	if err := table.RenderCSV(&raw); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&raw).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs[1:] {
		for i, col := range recs[0] {
			if wallClockCols[col] && rec[i] != "" {
				rec[i] = "*"
			}
		}
	}
	var out bytes.Buffer
	w := csv.NewWriter(&out)
	if err := w.WriteAll(recs); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestGoldenAllExperiments runs every registered experiment at the golden
// fig10 configuration and compares the concatenated CSVs, wall-clock columns
// masked, with testdata/golden_all.csv. It pins every table's rows, labels
// and scores, so a refactor of the experiment drivers must reproduce them
// byte for byte. The ablations run CONE, GRASP and S-GWL, whose scores are
// pinned on amd64 only (see TestSimilarityFixture). Regenerate with
//
//	go test ./internal/core -run TestGoldenAllExperiments -update-golden
func TestGoldenAllExperiments(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("experiment scores are pinned on amd64, not %s", runtime.GOARCH)
	}
	if testing.Short() {
		t.Skip("runs all experiments")
	}
	// The experiments run as parallel subtests, which keeps the test's
	// wall time down under the race detector; the CSVs are joined in id
	// order once the group has finished.
	ids := IDs()
	csvs := make([][]byte, len(ids))
	t.Run("experiments", func(t *testing.T) {
		for i, id := range ids {
			t.Run(id, func(t *testing.T) {
				t.Parallel()
				table, err := RunExperiment(id, goldenOptions())
				if err != nil {
					t.Fatal(err)
				}
				csvs[i] = maskedCSV(t, table)
			})
		}
	})
	if t.Failed() {
		return
	}
	var got bytes.Buffer
	for i, id := range ids {
		fmt.Fprintf(&got, "# %s\n", id)
		got.Write(csvs[i])
	}
	path := filepath.Join("testdata", "golden_all.csv")
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden fixture rewritten: %s (%d bytes)", path, got.Len())
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture (regenerate with -update-golden): %v", err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	g, w := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := range min(len(g), len(w)) {
		if g[i] != w[i] {
			t.Fatalf("experiment output drifted from %s at line %d\n--- want\n%s\n--- got\n%s", path, i+1, w[i], g[i])
		}
	}
	t.Fatalf("experiment output has %d lines, %s has %d", len(g), path, len(w))
}

// TestClampedSweepsRunEachSizeOnce runs the two size sweeps whose paper
// sizes scaledN clamps to its floor at Scale 0.05 (fig16's 500, 1000 and
// 2000 nodes, the LREA-vs-EigenAlign ablation's 400, 800 and 1600): every
// cell_done key must be distinct and their count the declared total, and
// a run journaling to a fresh checkpoint must render the same masked CSV
// as one without, which it cannot when a repeated cell key replays an
// earlier cell's record.
func TestClampedSweepsRunEachSizeOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment driver test")
	}
	for _, id := range []string{"fig16", "ablation-lrea-vs-eigenalign"} {
		t.Run(id, func(t *testing.T) {
			sink := &eventSink{}
			opts := goldenOptions()
			opts.Tracer = obsv.New(sink)
			plain, err := RunExperiment(id, opts)
			if err != nil {
				t.Fatal(err)
			}
			cells := sink.byType("cell_done")
			seen := make(map[string]bool)
			for _, e := range cells {
				if seen[e.Name] {
					t.Errorf("cell %s ran twice", e.Name)
				}
				seen[e.Name] = true
			}
			if last := cells[len(cells)-1].Fields; last["done"] != last["total"] {
				t.Errorf("%v cells done, %v declared", last["done"], last["total"])
			}

			ckOpts := goldenOptions()
			ck, err := OpenCheckpoint(filepath.Join(t.TempDir(), "run.ckpt"), ckOpts, false)
			if err != nil {
				t.Fatal(err)
			}
			defer ck.Close()
			ckOpts.Checkpoint = ck
			journaled, err := RunExperiment(id, ckOpts)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := maskedCSV(t, journaled), maskedCSV(t, plain); !bytes.Equal(got, want) {
				t.Errorf("checkpointed run differs\n--- without checkpoint\n%s\n--- with checkpoint\n%s", want, got)
			}
		})
	}
}

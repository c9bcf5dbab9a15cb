package graphalign_test

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"graphalign"
	"graphalign/internal/algo"
	"graphalign/internal/assign"
	"graphalign/internal/gen"
	"graphalign/internal/metrics"
	"graphalign/internal/noise"
	"graphalign/internal/partition"
)

// TestPartitionQualityGuardrail is the sharding quality guardrail: a
// fig9-style grid (three aligners x two noise levels on powerlaw-cluster
// graphs) comparing sharded (K=4) against unsharded accuracy. Sharding
// trades accuracy for memory by construction — cross-shard edges are
// invisible to the inner aligners — so the guardrail pins how much of the
// unsharded accuracy the partition layer must retain, per cell, rather than
// asserting parity. The measured grid is written to
// bench_results/partition-accuracy.txt for bench history tracking.
func TestPartitionQualityGuardrail(t *testing.T) {
	if testing.Short() {
		t.Skip("partition quality grid aligns six cells twice each")
	}
	const (
		n = 300
		k = 4
		// maxLoss is the pinned per-cell tolerance: sharded accuracy may
		// trail unsharded by at most this much (absolute). On this grid the
		// measured "loss" is zero or negative in every cell — the boundary
		// re-bid acts as a consensus repair that also fixes inner-aligner
		// mistakes — so a cell that trails by more than 0.1 signals a
		// co-partitioner, stitch, or refinement regression.
		maxLoss = 0.1
		// minAbs is an absolute floor independent of the unsharded
		// baseline; measured sharded accuracy is >= 0.77 in every cell.
		minAbs = 0.5
	)
	algos := []string{"NSD", "REGAL", "IsoRank"}
	levels := []float64{0, 0.05}

	var report []byte
	report = append(report, []byte(fmt.Sprintf("# sharded (K=%d) vs unsharded accuracy, powerlaw-cluster n=%d\n", k, n))...)
	report = append(report, []byte(fmt.Sprintf("%-8s %-6s %10s %10s %8s\n", "algo", "noise", "unsharded", "sharded", "loss"))...)

	for _, name := range algos {
		for _, level := range levels {
			rng := rand.New(rand.NewSource(90210))
			base := gen.PowerlawCluster(n, 3, 0.3, rng)
			p, err := noise.Apply(base, noise.OneWay, level, noise.Options{}, rng)
			if err != nil {
				t.Fatal(err)
			}
			a, err := graphalign.NewAligner(name)
			if err != nil {
				t.Fatal(err)
			}
			mono, err := algo.Run(context.Background(), a, p.Source, p.Target, algo.Plan{Method: assign.JonkerVolgenant})
			if err != nil {
				t.Fatalf("%s level %g unsharded: %v", name, level, err)
			}
			monoAcc := metrics.Accuracy(mono.Mapping, p.TrueMap)

			sharded, _, err := partition.Align(context.Background(),
				func() (algo.Aligner, error) { return graphalign.NewAligner(name) },
				p.Source, p.Target, assign.JonkerVolgenant, partition.Options{K: k})
			if err != nil {
				t.Fatalf("%s level %g sharded: %v", name, level, err)
			}
			shardAcc := metrics.Accuracy(sharded, p.TrueMap)

			loss := monoAcc - shardAcc
			report = append(report, []byte(fmt.Sprintf("%-8s %-6g %10.4f %10.4f %8.4f\n", name, level, monoAcc, shardAcc, loss))...)
			if loss > maxLoss {
				t.Errorf("%s level %g: sharded accuracy %.4f trails unsharded %.4f by %.4f (max loss %.2f)",
					name, level, shardAcc, monoAcc, loss, maxLoss)
			}
			if shardAcc < minAbs {
				t.Errorf("%s level %g: sharded accuracy %.4f below absolute floor %.2f",
					name, level, shardAcc, minAbs)
			}
		}
	}

	if err := os.MkdirAll("bench_results", 0o755); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join("bench_results", "partition-accuracy.txt")
	if err := os.WriteFile(out, report, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s:\n%s", out, report)
}

package core

import (
	"fmt"
	"math/rand"

	"graphalign/internal/algo"
	"graphalign/internal/algo/netalign"
	"graphalign/internal/assign"
	"graphalign/internal/gen"
	"graphalign/internal/noise"
)

func init() {
	register(Experiment{
		ID: "excluded-netalign",
		Title: "Section 4: NetAlign with the study's enhancements vs the included " +
			"methods (reproduces the exclusion rationale)",
		Run: runExcludedNetAlign,
	})
}

// runExcludedNetAlign grants NetAlign the same enhancements the paper did —
// the degree-similarity prior and the common JV assignment — and compares
// it against the included methods on the standard low-noise sweep. The
// paper "observed inadequate quality even after we applied the
// enhancements"; the gap in this table is that observation.
func runExcludedNetAlign(opts Options) (*Table, error) {
	rng := rand.New(rand.NewSource(opts.Seed))
	n := opts.scaledN(1133)
	base := gen.PowerlawCluster(n, 5, 0.5, rng)
	t := NewTable(
		fmt.Sprintf("NetAlign (excluded) vs included methods, PL n=%d, one-way noise", n),
		[]string{"level", "algorithm"},
		[]string{"accuracy", "s3", "sim_time"},
	)
	opts.declareCells(len(lowNoiseLevels))
	for _, level := range lowNoiseLevels {
		pairs, err := noisyInstances(base, noise.OneWay, level, opts, noise.Options{}, "excluded-netalign")
		if err != nil {
			return nil, err
		}
		cell := fmt.Sprintf("excluded-netalign/%.2f", level)
		runVariant(t, opts, cell, func(int) algo.Aligner { return netalign.New() }, map[string]string{
			"level": fmt.Sprintf("%.2f", level), "algorithm": "NetAlign",
		}, pairs)
		if err := runAlgorithms(opts, t, cell, map[string]string{"level": fmt.Sprintf("%.2f", level)}, pairs, assign.JonkerVolgenant); err != nil {
			return nil, err
		}
		opts.cellDone(cell)
	}
	t.Sort()
	return t, nil
}

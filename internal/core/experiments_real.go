package core

import (
	"fmt"

	"graphalign/internal/assign"
	"graphalign/internal/data"
	"graphalign/internal/graph"
	"graphalign/internal/noise"
)

func init() {
	register(Experiment{
		ID:    "fig7",
		Title: "Figure 7: real graphs (stand-ins), noise up to 5%, three noise types",
		Run:   runFig7,
	})
	register(Experiment{
		ID:    "fig8",
		Title: "Figure 8: real graphs (stand-ins), one-way noise up to 25%",
		Run:   runFig8,
	})
	register(Experiment{
		ID:    "fig9",
		Title: "Figure 9: time vs accuracy on NetScience (stand-in)",
		Run:   runFig9,
	})
	register(Experiment{
		ID:    "fig10",
		Title: "Figure 10: graphs with real (evolving) noise: HighSchool, Voles, MultiMagna",
		Run:   runFig10,
	})
}

// runRealNoise is the shared driver for Figures 7 and 8.
func runRealNoise(opts Options, datasets []string, noiseTypes []noise.Type, levels []float64, valueCols []string) (*Table, error) {
	t := NewTable(
		"Real-graph stand-ins",
		[]string{"dataset", "noise", "level", "algorithm"},
		valueCols,
	)
	opts.declareCells(len(datasets) * len(noiseTypes) * len(levels))
	for _, dsName := range datasets {
		base, err := opts.loadDataset(dsName)
		if err != nil {
			return nil, err
		}
		base, _ = graph.LargestComponent(base)
		for _, nt := range noiseTypes {
			for _, level := range levels {
				pairs, err := noisyInstances(base, nt, level, opts, noise.Options{}, dsName)
				if err != nil {
					return nil, err
				}
				cell := fmt.Sprintf("%s/%s/%.2f", dsName, nt, level)
				labels := map[string]string{"dataset": dsName, "noise": string(nt), "level": fmt.Sprintf("%.2f", level)}
				if err := runAlgorithms(opts, t, cell, labels, pairs, assign.JonkerVolgenant); err != nil {
					return nil, err
				}
				opts.cellDone(cell)
			}
		}
	}
	t.Sort()
	return t, nil
}

func runFig7(opts Options) (*Table, error) {
	return runRealNoise(opts,
		[]string{"arenas", "facebook", "ca-astroph"},
		noise.Types(), lowNoiseLevels,
		[]string{"accuracy", "sim_time"},
	)
}

func runFig8(opts Options) (*Table, error) {
	datasets := []string{
		"inf-euroroad", "inf-power", "fb-haverford76", "fb-hamilton46",
		"fb-bowdoin47", "fb-swarthmore42", "soc-hamsterster", "bio-celegans",
		"ca-grqc", "ca-netscience",
	}
	// The paper averages 5 runs here.
	if opts.Reps > 5 {
		opts.Reps = 5
	}
	return runRealNoise(opts, datasets, []noise.Type{noise.OneWay}, highNoiseLevels,
		[]string{"accuracy", "sim_time"})
}

// runFig9 reproduces the time-vs-accuracy scatter on NetScience: accuracy
// and similarity time per algorithm per noise level.
func runFig9(opts Options) (*Table, error) {
	base, err := opts.loadDataset("ca-netscience")
	if err != nil {
		return nil, err
	}
	base, _ = graph.LargestComponent(base)
	t := NewTable(
		fmt.Sprintf("NetScience stand-in, n=%d", base.N()),
		[]string{"level", "algorithm"},
		[]string{"accuracy", "sim_time", "assign_time"},
	)
	opts.declareCells(len(highNoiseLevels))
	for _, level := range highNoiseLevels {
		pairs, err := noisyInstances(base, noise.OneWay, level, opts, noise.Options{}, "fig9")
		if err != nil {
			return nil, err
		}
		cell := fmt.Sprintf("fig9/%.2f", level)
		if err := runAlgorithms(opts, t, cell, map[string]string{"level": fmt.Sprintf("%.2f", level)}, pairs, assign.JonkerVolgenant); err != nil {
			return nil, err
		}
		opts.cellDone(cell)
	}
	t.Sort()
	return t, nil
}

// runFig10 reproduces the real-noise experiment: match each evolving
// dataset's base graph against variants retaining 80-99% of its edges.
func runFig10(opts Options) (*Table, error) {
	fractions := []float64{0.80, 0.85, 0.90, 0.99}
	t := NewTable(
		"Evolving graphs with ground-truth alignment",
		[]string{"dataset", "fraction", "algorithm"},
		[]string{"accuracy", "mnc", "s3"},
	)
	datasets := []string{"highschool", "voles", "multimagna"}
	opts.declareCells(len(datasets) * len(fractions))
	for _, dsName := range datasets {
		pairs, err := data.EvolvingVariantsScaled(dsName, fractions, opts.effectiveScale())
		if err != nil {
			return nil, err
		}
		for i, p := range pairs {
			cell := fmt.Sprintf("fig10/%s/%.2f", dsName, fractions[i])
			labels := map[string]string{"dataset": dsName, "fraction": fmt.Sprintf("%.2f", fractions[i])}
			if err := runAlgorithms(opts, t, cell, labels, []noise.Pair{p}, assign.JonkerVolgenant); err != nil {
				return nil, err
			}
			opts.cellDone(cell)
		}
	}
	t.Sort()
	return t, nil
}

package core

import (
	"fmt"
	"math/rand"

	"graphalign/internal/assign"
	"graphalign/internal/gen"
	"graphalign/internal/noise"
)

func init() {
	register(Experiment{
		ID:    "table1",
		Title: "Table 1: algorithm characteristics (static registry)",
		Run:   runTable1,
	})
	register(Experiment{
		ID:    "table3",
		Title: "Table 3: summary results vs graph model (derived from figs 2-6 data)",
		Run:   runTable3,
	})
}

// table1Rows mirrors the paper's Table 1; kept here (rather than read from
// the facade registry) to avoid an import cycle — the facade asserts the
// two stay in sync in its tests.
var table1Rows = []struct {
	Name, Prepr, Assign, Opt, Time, Params string
	Year                                   int
	Bio                                    bool
}{
	{"IsoRank", "Yes", "SG", "Any", "O(n^4)", "alpha=0.9", 2008, true},
	{"GRAAL", "Yes", "SG", "Any", "O(n^3)", "alpha=0.8", 2010, false},
	{"NSD", "Both", "SG", "Any", "O(n^2)", "alpha=0.8", 2011, false},
	{"LREA", "No", "MWM", "Any", "O(n log n)", "iterations=40", 2018, false},
	{"REGAL", "No", "NN", "Any", "O(n log n)", "k=2, p=10 log n", 2018, false},
	{"GWL", "No", "NN", "Any", "O(n^3)", "epoch=1", 2019, false},
	{"S-GWL", "No", "NN", "Any", "O(n^2 log n)", "beta in {0.025, 0.1}", 2019, false},
	{"CONE", "No", "NN", "MNC", "O(n^2)", "dim=512", 2020, false},
	{"GRASP", "No", "JV", "Any", "O(n^3)", "q=100, k=20", 2021, false},
}

func runTable1(Options) (*Table, error) {
	t := NewTable(
		"Algorithms considered in the experiments",
		[]string{"algorithm", "year", "prepr", "bio", "assign", "opt", "time", "parameters"},
		nil,
	)
	for _, r := range table1Rows {
		bio := "No"
		if r.Bio {
			bio = "Yes"
		}
		t.Add(map[string]string{
			"algorithm":  r.Name,
			"year":       fmt.Sprintf("%d", r.Year),
			"prepr":      r.Prepr,
			"bio":        bio,
			"assign":     r.Assign,
			"opt":        r.Opt,
			"time":       r.Time,
			"parameters": r.Params,
		}, nil)
	}
	return t, nil
}

// runTable3 derives the paper's summary table: per graph model, the mean
// accuracy of every algorithm across noise types at a representative noise
// level (2%), marking the two best per model.
func runTable3(opts Options) (*Table, error) {
	rng := rand.New(rand.NewSource(opts.Seed))
	n := opts.scaledN(1133)
	t := NewTable(
		fmt.Sprintf("Summary vs graph model (mean accuracy at 2%% noise, n=%d)", n),
		[]string{"algorithm"},
		[]string{"ER", "BA", "WS", "NW", "PL", "mean"},
	)
	// One accuracy row per (model, algorithm), pivoted below.
	runs := NewTable("", []string{"model", "algorithm"}, []string{"accuracy"})
	opts.declareCells(len(gen.Models()))
	for _, model := range gen.Models() {
		base, err := gen.GenerateScaled(model, n, rng)
		if err != nil {
			return nil, err
		}
		cell := "table3/" + string(model)
		var pairs []noise.Pair
		for _, nt := range noise.Types() {
			ps, err := noisyInstances(base, nt, 0.02, opts, noise.Options{}, cell)
			if err != nil {
				return nil, err
			}
			pairs = append(pairs, ps...)
		}
		if err := runAlgorithms(opts, runs, cell, map[string]string{"model": string(model)}, pairs, assign.JonkerVolgenant); err != nil {
			return nil, err
		}
		opts.cellDone(cell)
	}
	// runs holds each algorithm's rows in model order, so the mean sums
	// them in that order.
	for _, name := range opts.algorithms() {
		vals := map[string]float64{}
		var sum float64
		for _, r := range runs.Rows {
			if r.Labels["algorithm"] == name {
				vals[r.Labels["model"]] = r.Values["accuracy"]
				sum += r.Values["accuracy"]
			}
		}
		if len(vals) == 0 {
			continue
		}
		vals["mean"] = sum / float64(len(vals))
		t.Add(map[string]string{"algorithm": name}, vals)
	}
	return t, nil
}

package core

import (
	"fmt"
	"math/rand"

	"graphalign/internal/assign"
	"graphalign/internal/gen"
	"graphalign/internal/graph"
	"graphalign/internal/noise"
)

// lowNoiseLevels is the paper's {0, 0.01, ..., 0.05} grid.
var lowNoiseLevels = []float64{0, 0.01, 0.02, 0.03, 0.04, 0.05}

// highNoiseLevels is the paper's {0, 0.05, ..., 0.25} grid.
var highNoiseLevels = []float64{0, 0.05, 0.10, 0.15, 0.20, 0.25}

func init() {
	register(Experiment{
		ID:    "fig1",
		Title: "Figure 1: assignment methods on Arenas (stand-in) and PL graphs",
		Run:   runFig1,
	})
	for _, m := range []struct {
		id    string
		model gen.Model
		title string
	}{
		{"fig2", gen.ER, "Figure 2: Erdős–Rényi"},
		{"fig3", gen.BA, "Figure 3: Barabási–Albert"},
		{"fig4", gen.WS, "Figure 4: Watts–Strogatz"},
		{"fig5", gen.NW, "Figure 5: Newman–Watts"},
		{"fig6", gen.PL, "Figure 6: Powerlaw cluster"},
	} {
		model := m.model
		register(Experiment{
			ID:    m.id,
			Title: m.title + " — Accuracy, S3, MNC under three noise types",
			Run: func(opts Options) (*Table, error) {
				return runModelFigure(opts, model)
			},
		})
	}
}

// runModelFigure reproduces Figures 2-6: one synthetic model, three noise
// types, noise levels 0-5%, all algorithms aligned with JV (the study's
// common assignment stage), scored by Accuracy, S3 and MNC.
func runModelFigure(opts Options, model gen.Model) (*Table, error) {
	n := opts.scaledN(1133)
	rng := rand.New(rand.NewSource(opts.Seed))
	base, err := gen.GenerateScaled(model, n, rng)
	if err != nil {
		return nil, err
	}
	t := NewTable(
		fmt.Sprintf("%s graphs, n=%d", model, n),
		[]string{"noise", "level", "algorithm"},
		[]string{"accuracy", "s3", "mnc", "sim_time"},
	)
	opts.declareCells(len(noise.Types()) * len(lowNoiseLevels))
	for _, nt := range noise.Types() {
		for _, level := range lowNoiseLevels {
			pairs, err := noisyInstances(base, nt, level, opts, noise.Options{}, string(model))
			if err != nil {
				return nil, err
			}
			cell := fmt.Sprintf("%s/%s/%.2f", model, nt, level)
			labels := map[string]string{"noise": string(nt), "level": fmt.Sprintf("%.2f", level)}
			if err := runAlgorithms(opts, t, cell, labels, pairs, assign.JonkerVolgenant); err != nil {
				return nil, err
			}
			opts.cellDone(cell)
		}
	}
	t.Sort()
	return t, nil
}

// runFig1 reproduces Figure 1: every algorithm under every assignment
// method on a real-graph stand-in (Arenas) and a synthetic powerlaw graph,
// with one-way noise keeping the graph connected.
func runFig1(opts Options) (*Table, error) {
	rng := rand.New(rand.NewSource(opts.Seed))
	arenas, err := opts.loadDataset("arenas")
	if err != nil {
		return nil, err
	}
	pl := gen.PowerlawCluster(opts.scaledN(1133), 5, 0.5, rng)
	t := NewTable(
		"Assignment methods (one-way noise, connected)",
		[]string{"dataset", "algorithm", "assign", "level"},
		[]string{"accuracy", "assign_time"},
	)
	graphs := []struct {
		name string
		g    *graph.Graph
	}{{"arenas", arenas}, {"powerlaw", pl}}
	opts.declareCells(len(graphs) * len(lowNoiseLevels))
	for _, ds := range graphs {
		base, _ := graph.LargestComponent(ds.g)
		for _, level := range lowNoiseLevels {
			pairs, err := noisyInstances(base, noise.OneWay, level, opts, noise.Options{KeepConnected: true}, "fig1/"+ds.name)
			if err != nil {
				return nil, err
			}
			cell := fmt.Sprintf("fig1/%s/%.2f", ds.name, level)
			for _, method := range assign.Methods() {
				labels := map[string]string{"dataset": ds.name, "assign": string(method), "level": fmt.Sprintf("%.2f", level)}
				if err := runAlgorithms(opts, t, cell, labels, pairs, method); err != nil {
					return nil, err
				}
			}
			opts.cellDone(cell)
		}
	}
	t.Sort()
	return t, nil
}

// effectiveScale returns Scale with the default applied.
func (o *Options) effectiveScale() float64 {
	if o.Scale <= 0 {
		return 0.2
	}
	if o.Scale > 1 {
		return 1
	}
	return o.Scale
}

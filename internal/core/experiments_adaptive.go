package core

import (
	"fmt"
	"math/rand"

	"graphalign/internal/adaptive"
	"graphalign/internal/algo"
	"graphalign/internal/assign"
	"graphalign/internal/gen"
	"graphalign/internal/noise"
)

func init() {
	register(Experiment{
		ID: "ablation-adaptive",
		Title: "Ablation: structure-adaptive dispatch (the paper's future-work proposal) " +
			"vs fixed algorithm choices across graph regimes",
		Run: runAblationAdaptive,
	})
}

// runAblationAdaptive evaluates the Adaptive aligner against every fixed
// algorithm on three structural regimes — powerlaw, small-world, sparse
// ring lattice — with 1% one-way noise. The paper's conclusion predicts
// that no fixed choice wins everywhere, while dispatch on density and
// degree distribution should track the per-regime winner.
func runAblationAdaptive(opts Options) (*Table, error) {
	rng := rand.New(rand.NewSource(opts.Seed))
	n := opts.scaledN(1133)
	t := NewTable("Adaptive dispatch vs fixed algorithms (1% one-way noise)",
		[]string{"regime", "algorithm"}, []string{"accuracy", "sim_time"})

	type regime struct {
		name  string
		pairs []noise.Pair
	}
	bases := []struct {
		name string
		g    func() ([]noise.Pair, error)
	}{
		{"powerlaw", func() ([]noise.Pair, error) {
			return noisyInstances(gen.PowerlawCluster(n, 5, 0.5, rng), noise.OneWay, 0.01, opts, noise.Options{}, "adaptive/powerlaw")
		}},
		{"small-world", func() ([]noise.Pair, error) {
			return noisyInstances(gen.NewmanWatts(n, 8, 0.5, rng), noise.OneWay, 0.01, opts, noise.Options{}, "adaptive/small-world")
		}},
		{"sparse", func() ([]noise.Pair, error) {
			return noisyInstances(gen.WattsStrogatz(n, 2, 0.1, rng), noise.OneWay, 0.01, opts, noise.Options{}, "adaptive/sparse")
		}},
	}
	var regimes []regime
	for _, b := range bases {
		pairs, err := b.g()
		if err != nil {
			return nil, err
		}
		regimes = append(regimes, regime{b.name, pairs})
	}

	opts.declareCells(len(regimes))
	for _, rg := range regimes {
		// The adaptive dispatcher first.
		runVariant(t, opts, "adaptive/"+rg.name, func(int) algo.Aligner { return adaptive.New() }, map[string]string{
			"regime": rg.name, "algorithm": "Adaptive",
		}, rg.pairs)
		// Then every fixed algorithm from the study's set.
		if err := runAlgorithms(opts, t, "adaptive/"+rg.name, map[string]string{"regime": rg.name}, rg.pairs, assign.JonkerVolgenant); err != nil {
			return nil, err
		}
		opts.cellDone("ablation-adaptive/" + rg.name)
	}
	t.Sort()
	if len(t.Rows) == 0 {
		return nil, fmt.Errorf("ablation-adaptive: no rows")
	}
	return t, nil
}

package core

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"graphalign/internal/assign"
	"graphalign/internal/gen"
	"graphalign/internal/noise"
)

func init() {
	register(Experiment{
		ID:    "fig11",
		Title: "Figure 11: time vs number of nodes (configuration model, avg degree 10)",
		Run:   func(o Options) (*Table, error) { return runScalability(o, true, false) },
	})
	register(Experiment{
		ID:    "fig12",
		Title: "Figure 12: time vs average degree (configuration model)",
		Run:   func(o Options) (*Table, error) { return runScalability(o, false, false) },
	})
	register(Experiment{
		ID:    "fig13",
		Title: "Figure 13: memory vs number of nodes (configuration model, avg degree 10)",
		Run:   func(o Options) (*Table, error) { return runScalability(o, true, true) },
	})
	register(Experiment{
		ID:    "fig14",
		Title: "Figure 14: memory vs average degree (configuration model)",
		Run:   func(o Options) (*Table, error) { return runScalability(o, false, true) },
	})
	register(Experiment{
		ID:    "fig15",
		Title: "Figure 15: density impact on Newman–Watts graphs (1% one-way noise)",
		Run:   runFig15,
	})
	register(Experiment{
		ID:    "fig16",
		Title: "Figure 16: size vs quality on Newman–Watts graphs (1% one-way noise)",
		Run:   runFig16,
	})
}

// scaleSizes derives the node-count sweep for Figures 11/13. The paper uses
// 2^10..2^16; the sweep is shifted down by the scale factor but keeps the
// same doubling shape.
func scaleSizes(opts Options) []int {
	// scale 1.0 -> 2^10..2^16; scale 0.2 -> roughly 2^8..2^11.
	s := opts.effectiveScale()
	maxExp := 10 + int(math.Round(6*s))
	minExp := maxExp - 3
	if minExp < 7 {
		minExp = 7
	}
	var out []int
	for e := minExp; e <= maxExp; e++ {
		out = append(out, 1<<e)
	}
	return out
}

// scaleDegrees derives the average-degree sweep for Figures 12/14 (paper:
// 10, 100, 1000, 10000 at 2^14 nodes).
func scaleDegrees(opts Options, n int) []int {
	candidates := []int{10, 100, 1000, 10000}
	var out []int
	for _, d := range candidates {
		if d < n/2 {
			out = append(out, d)
		}
	}
	if len(out) == 0 {
		out = []int{4}
	}
	return out
}

// runScalability reproduces Figures 11-14: runtime (or allocated memory)
// on configuration-model graphs with normal degree distribution, excluding
// the assignment step, averaged over Reps runs. GRAAL is excluded, as in
// the paper (quintic preprocessing). An algorithm that blows the
// PerRunBudget at one point is skipped for the larger points, mirroring
// the paper's 3-hour cap.
func runScalability(opts Options, byNodes, memory bool) (*Table, error) {
	rng := rand.New(rand.NewSource(opts.Seed))
	valueCol := "sim_time"
	if memory {
		valueCol = "mem"
		// AllocBytes is only meaningful when runs are serialized and
		// profiled; see RunInstanceProfiled.
		opts.MemProfile = true
	}
	var xs []int
	fixedN := 0
	if byNodes {
		xs = scaleSizes(opts)
	} else {
		sizes := scaleSizes(opts)
		fixedN = sizes[len(sizes)-1] // the paper fixes 2^14; we fix our top size
		xs = scaleDegrees(opts, fixedN)
	}
	xLabel := "n"
	if !byNodes {
		xLabel = "degree"
	}
	t := NewTable(
		"Configuration-model scalability",
		[]string{xLabel, "algorithm"},
		[]string{valueCol},
	)
	algorithms := make([]string, 0, len(opts.algorithms()))
	for _, a := range opts.algorithms() {
		if a == "GRAAL" {
			continue // excluded by the paper for its O(n^5) preprocessing
		}
		algorithms = append(algorithms, a)
	}
	opts.declareCells(len(xs))
	skipped := make(map[string]bool)
	reps := opts.Reps
	if reps < 1 {
		reps = 1
	}
	if reps > 5 {
		reps = 5 // the paper averages 5 runs here
	}
	for _, x := range xs {
		n, deg := x, 10
		if !byNodes {
			n, deg = fixedN, x
		}
		degseq := gen.NormalDegrees(n, float64(deg), float64(deg)/5+1, rng)
		base := gen.ConfigurationModel(degseq, rng)
		repOpts := opts
		repOpts.Reps = reps
		cell := fmt.Sprintf("scal/%s/%d", xLabel, x)
		pairs, err := noisyInstances(base, noise.OneWay, 0.01, repOpts, noise.Options{}, cell)
		if err != nil {
			return nil, err
		}
		for _, name := range algorithms {
			if skipped[name] {
				continue
			}
			start := time.Now()
			mean, err := runAveraged(opts, cell, name, pairs, assign.SortGreedy)
			if err != nil {
				return nil, err
			}
			labels := map[string]string{xLabel: fmt.Sprintf("%d", x), "algorithm": name}
			if !opts.addResult(t, fmt.Sprintf("%s %s %s", cell, name, assign.SortGreedy), labels, mean) {
				skipped[name] = true
				continue
			}
			if opts.PerRunBudget > 0 && time.Since(start) > opts.PerRunBudget*time.Duration(reps) {
				skipped[name] = true
				opts.Tracer.Progress(fmt.Sprintf("scalability: %s exceeded budget at %s=%d; skipping larger points", name, xLabel, x))
			}
		}
		opts.cellDone(cell)
	}
	t.Sort()
	return t, nil
}

// runFig15 reproduces the density study: Newman–Watts graphs of 2000 nodes
// (scaled), sweeping the rewiring probability p and the lattice degree k,
// with 1% one-way noise.
func runFig15(opts Options) (*Table, error) {
	rng := rand.New(rand.NewSource(opts.Seed))
	n := opts.scaledN(2000)
	t := NewTable(
		fmt.Sprintf("Newman–Watts density sweep, n=%d, 1%% one-way noise", n),
		[]string{"sweep", "p", "k", "algorithm"},
		[]string{"accuracy"},
	)
	// Precompute both sweeps (applying the degree guards) so the cell total
	// is known before any point runs.
	type cell struct {
		sweep string
		p     float64
		k     int
	}
	var cells []cell
	// Part A: rewiring probability sweep at two lattice degrees.
	for _, k := range []int{10, 100} {
		if k >= n {
			continue
		}
		for _, p := range []float64{0.2, 0.5, 0.9} {
			cells = append(cells, cell{"p-sweep", p, k})
		}
	}
	// Part B: lattice degree sweep at p = 0.5.
	for _, k := range []int{10, 50, 100, 200, 400, 600} {
		kk := int(float64(k) * opts.effectiveScale() * 5) // keep degree meaningful at small n
		if kk < 4 {
			kk = 4
		}
		if kk >= n/2 {
			continue
		}
		cells = append(cells, cell{"k-sweep", 0.5, kk})
	}
	opts.declareCells(len(cells))
	for _, c := range cells {
		if err := fig15Point(opts, t, rng, c.sweep, n, c.k, c.p); err != nil {
			return nil, err
		}
		opts.cellDone(fmt.Sprintf("fig15/%s/p=%.1f/k=%d", c.sweep, c.p, c.k))
	}
	t.Sort()
	return t, nil
}

func fig15Point(opts Options, t *Table, rng *rand.Rand, sweep string, n, k int, p float64) error {
	if k%2 == 1 {
		k++
	}
	base := gen.NewmanWatts(n, k, p, rng)
	cell := fmt.Sprintf("fig15/%s/%g/%d", sweep, p, k)
	pairs, err := noisyInstances(base, noise.OneWay, 0.01, opts, noise.Options{}, cell)
	if err != nil {
		return err
	}
	labels := map[string]string{"sweep": sweep, "p": fmt.Sprintf("%.1f", p), "k": fmt.Sprintf("%d", k)}
	return runAlgorithms(opts, t, cell, labels, pairs, assign.JonkerVolgenant)
}

// runFig16 reproduces the size study: growing Newman–Watts graphs at
// constant degree (k=10, decreasing density) and at constant density
// (k=n/10), with 1% one-way noise.
func runFig16(opts Options) (*Table, error) {
	rng := rand.New(rand.NewSource(opts.Seed))
	t := NewTable(
		"Newman–Watts size sweep, 1% one-way noise",
		[]string{"regime", "n", "algorithm"},
		[]string{"accuracy"},
	)
	sizes := opts.scaledSizes(500, 1000, 2000, 4000)
	// Precompute the (regime, n) grid passing the degree guards so the cell
	// total is known before any point runs.
	type cell struct {
		regime string
		n, k   int
	}
	var cells []cell
	for _, regime := range []string{"constant-degree", "constant-density"} {
		for _, n := range sizes {
			k := 10
			if regime == "constant-density" {
				k = n / 10
			}
			if k%2 == 1 {
				k++
			}
			if k < 2 || k >= n/2 {
				continue
			}
			cells = append(cells, cell{regime, n, k})
		}
	}
	opts.declareCells(len(cells))
	for _, c := range cells {
		base := gen.NewmanWatts(c.n, c.k, 0.5, rng)
		cell := fmt.Sprintf("fig16/%s/%d", c.regime, c.n)
		pairs, err := noisyInstances(base, noise.OneWay, 0.01, opts, noise.Options{}, cell)
		if err != nil {
			return nil, err
		}
		labels := map[string]string{"regime": c.regime, "n": fmt.Sprintf("%d", c.n)}
		if err := runAlgorithms(opts, t, cell, labels, pairs, assign.JonkerVolgenant); err != nil {
			return nil, err
		}
		opts.cellDone(cell)
	}
	t.Sort()
	return t, nil
}

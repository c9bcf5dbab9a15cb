package core

import (
	"fmt"
	"math/rand"

	"graphalign/internal/algo"
	"graphalign/internal/algo/cone"
	"graphalign/internal/algo/grasp"
	"graphalign/internal/algo/isorank"
	"graphalign/internal/algo/lrea"
	"graphalign/internal/algo/sgwl"
	"graphalign/internal/gen"
	"graphalign/internal/noise"
)

// Ablation experiments probe the design choices DESIGN.md calls out. They
// instantiate algorithm variants directly, bypassing the Factory.
func init() {
	register(Experiment{
		ID:    "ablation-isorank-prior",
		Title: "Ablation: IsoRank degree-similarity prior (Section 6.1) vs uniform prior",
		Run:   runAblationIsoRankPrior,
	})
	register(Experiment{
		ID:    "ablation-lrea-rank",
		Title: "Ablation: LREA iteration (rank) sweep",
		Run:   runAblationLREARank,
	})
	register(Experiment{
		ID:    "ablation-lrea-vs-eigenalign",
		Title: "Ablation: LREA's low-rank factoring vs exact EigenAlign (quality and runtime)",
		Run:   runAblationLREAvsEigenAlign,
	})
	register(Experiment{
		ID:    "ablation-grasp-params",
		Title: "Ablation: GRASP eigenvector count k and time steps q",
		Run:   runAblationGRASPParams,
	})
	register(Experiment{
		ID:    "ablation-sgwl-beta",
		Title: "Ablation: S-GWL proximal regularization beta on sparse vs dense graphs",
		Run:   runAblationSGWLBeta,
	})
	register(Experiment{
		ID:    "ablation-cone-dim",
		Title: "Ablation: CONE embedding dimension sweep",
		Run:   runAblationCONEDim,
	})
}

// ablationInstances builds the shared 1%-one-way-noise instances on a
// powerlaw graph.
func ablationInstances(opts Options, rng *rand.Rand) ([]noise.Pair, error) {
	base := gen.PowerlawCluster(opts.scaledN(1133), 5, 0.5, rng)
	return noisyInstances(base, noise.OneWay, 0.01, opts, noise.Options{}, "ablation-pl")
}

func runAblationIsoRankPrior(opts Options) (*Table, error) {
	rng := rand.New(rand.NewSource(opts.Seed))
	pairs, err := ablationInstances(opts, rng)
	if err != nil {
		return nil, err
	}
	t := NewTable("IsoRank prior ablation (PL graph, 1% one-way noise)",
		[]string{"prior"}, []string{"accuracy", "s3", "sim_time"})
	opts.declareCells(2)
	// Degree-similarity prior (the study's Section 6.1 choice).
	runVariant(t, opts, "isorank-prior/degree-similarity", func(int) algo.Aligner { return isorank.New() },
		map[string]string{"prior": "degree-similarity"}, pairs)
	opts.cellDone("ablation-isorank-prior/degree-similarity")
	// Uniform prior (what earlier comparisons effectively used). The prior
	// must match each instance's shape, so build it instance-by-instance.
	runVariant(t, opts, "isorank-prior/uniform", func(i int) algo.Aligner {
		p := pairs[i]
		ir := isorank.New()
		uniform := algo.DegreePrior(p.Source, p.Target)
		uniform.Fill(1)
		ir.Prior = uniform
		return ir
	}, map[string]string{"prior": "uniform"}, pairs)
	opts.cellDone("ablation-isorank-prior/uniform")
	return t, nil
}

func runAblationLREARank(opts Options) (*Table, error) {
	rng := rand.New(rand.NewSource(opts.Seed))
	pairs, err := ablationInstances(opts, rng)
	if err != nil {
		return nil, err
	}
	t := NewTable("LREA iteration sweep (PL graph, 1% one-way noise)",
		[]string{"iterations"}, []string{"accuracy", "s3", "sim_time"})
	sweep := []int{5, 10, 20, 40, 80}
	opts.declareCells(len(sweep))
	for _, iters := range sweep {
		iters := iters
		runVariant(t, opts, fmt.Sprintf("lrea-rank/%d", iters), func(int) algo.Aligner {
			l := lrea.New()
			l.Iters = iters
			return l
		}, map[string]string{"iterations": fmt.Sprintf("%d", iters)}, pairs)
		opts.cellDone(fmt.Sprintf("ablation-lrea-rank/%d", iters))
	}
	return t, nil
}

// runAblationLREAvsEigenAlign reproduces the motivation for LREA: the
// factored power iteration matches the exact EigenAlign's quality at a
// fraction of the per-size cost (the survey quotes a 10x size advantage).
func runAblationLREAvsEigenAlign(opts Options) (*Table, error) {
	rng := rand.New(rand.NewSource(opts.Seed))
	t := NewTable("LREA vs exact EigenAlign (isomorphic powerlaw instances)",
		[]string{"n", "algorithm"}, []string{"accuracy", "sim_time"})
	sizes := opts.scaledSizes(400, 800, 1600)
	opts.declareCells(len(sizes) * 2)
	for _, n := range sizes {
		base := gen.PowerlawCluster(n, 4, 0.4, rng)
		pairs, err := noisyInstances(base, noise.OneWay, 0, opts, noise.Options{}, fmt.Sprintf("ablation-lrea-ea/%d", n))
		if err != nil {
			return nil, err
		}
		runVariant(t, opts, fmt.Sprintf("lrea-ea/LREA/%d", n), func(int) algo.Aligner { return lrea.New() }, map[string]string{
			"n": fmt.Sprintf("%d", n), "algorithm": "LREA",
		}, pairs)
		opts.cellDone(fmt.Sprintf("ablation-lrea-ea/LREA/%d", n))
		runVariant(t, opts, fmt.Sprintf("lrea-ea/EigenAlign/%d", n), func(int) algo.Aligner { return lrea.NewEigenAlign() }, map[string]string{
			"n": fmt.Sprintf("%d", n), "algorithm": "EigenAlign",
		}, pairs)
		opts.cellDone(fmt.Sprintf("ablation-lrea-ea/EigenAlign/%d", n))
	}
	t.Sort()
	return t, nil
}

func runAblationGRASPParams(opts Options) (*Table, error) {
	rng := rand.New(rand.NewSource(opts.Seed))
	pairs, err := ablationInstances(opts, rng)
	if err != nil {
		return nil, err
	}
	t := NewTable("GRASP (k, q) sweep (PL graph, 1% one-way noise)",
		[]string{"k", "q"}, []string{"accuracy", "s3", "sim_time"})
	ks, qs := []int{5, 10, 20, 40}, []int{25, 50, 100}
	opts.declareCells(len(ks) * len(qs))
	for _, k := range ks {
		for _, q := range qs {
			k, q := k, q
			runVariant(t, opts, fmt.Sprintf("grasp/k=%d/q=%d", k, q), func(int) algo.Aligner {
				g := grasp.New()
				g.K = k
				g.Q = q
				return g
			}, map[string]string{
				"k": fmt.Sprintf("%d", k), "q": fmt.Sprintf("%d", q),
			}, pairs)
			opts.cellDone(fmt.Sprintf("ablation-grasp/k=%d/q=%d", k, q))
		}
	}
	t.Sort()
	return t, nil
}

func runAblationSGWLBeta(opts Options) (*Table, error) {
	rng := rand.New(rand.NewSource(opts.Seed))
	n := opts.scaledN(1133)
	sparse := gen.NewmanWatts(n, 4, 0.1, rng)    // sparse, grid-like
	dense := gen.PowerlawCluster(n, 8, 0.5, rng) // dense, skewed
	t := NewTable("S-GWL beta sweep (1% one-way noise)",
		[]string{"graph", "beta"}, []string{"accuracy", "s3", "sim_time"})
	betas := []float64{0.01, 0.025, 0.05, 0.1, 0.2}
	opts.declareCells(2 * len(betas))
	run := func(name string, pairs []noise.Pair) {
		for _, beta := range betas {
			beta := beta
			runVariant(t, opts, fmt.Sprintf("sgwl/%s/beta=%.3f", name, beta), func(int) algo.Aligner {
				s := sgwl.New()
				s.Beta = beta
				return s
			}, map[string]string{
				"graph": name, "beta": fmt.Sprintf("%.3f", beta),
			}, pairs)
			opts.cellDone(fmt.Sprintf("ablation-sgwl/%s/beta=%.3f", name, beta))
		}
	}
	sparsePairs, err := noisyInstances(sparse, noise.OneWay, 0.01, opts, noise.Options{}, "ablation-sgwl/sparse")
	if err != nil {
		return nil, err
	}
	densePairs, err := noisyInstances(dense, noise.OneWay, 0.01, opts, noise.Options{}, "ablation-sgwl/dense")
	if err != nil {
		return nil, err
	}
	run("sparse", sparsePairs)
	run("dense", densePairs)
	t.Sort()
	return t, nil
}

func runAblationCONEDim(opts Options) (*Table, error) {
	rng := rand.New(rand.NewSource(opts.Seed))
	pairs, err := ablationInstances(opts, rng)
	if err != nil {
		return nil, err
	}
	t := NewTable("CONE dimension sweep (PL graph, 1% one-way noise)",
		[]string{"dim"}, []string{"accuracy", "s3", "sim_time"})
	dims := []int{16, 32, 64, 128}
	opts.declareCells(len(dims))
	for _, dim := range dims {
		dim := dim
		runVariant(t, opts, fmt.Sprintf("cone/dim=%d", dim), func(int) algo.Aligner {
			c := cone.New()
			c.Dim = dim
			return c
		}, map[string]string{"dim": fmt.Sprintf("%d", dim)}, pairs)
		opts.cellDone(fmt.Sprintf("ablation-cone/dim=%d", dim))
	}
	return t, nil
}

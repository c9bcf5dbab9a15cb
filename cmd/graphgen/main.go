// Command graphgen generates synthetic benchmark graphs and noisy variants
// as edge-list files.
//
// Usage:
//
//	graphgen -model BA -n 1000 -out base.edges
//	graphgen -dataset arenas -out arenas.edges
//	graphgen -perturb base.edges -noise one-way -level 0.05 -out noisy.edges -truth truth.txt
//
// Models: ER, BA, WS, NW, PL, CONFIG. Datasets: the Table 2 stand-ins (see
// `graphgen -datasets`). When perturbing, the ground truth is written to
// -truth one "srcLabel dstLabel" pair per line: the node's label in the
// perturbed input and its counterpart's label in -out. Nodes the noise left
// isolated have no line in -out, so they get no truth line either.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"graphalign"
	"graphalign/internal/data"
	"graphalign/internal/gen"
	"graphalign/internal/noise"
)

func main() {
	var (
		model    = flag.String("model", "", "generator model: ER, BA, WS, NW, PL, CONFIG")
		dataset  = flag.String("dataset", "", "Table 2 dataset stand-in name")
		listDS   = flag.Bool("datasets", false, "list dataset names")
		n        = flag.Int("n", 1000, "number of nodes (generator models)")
		seed     = flag.Int64("seed", 1, "random seed")
		outPath  = flag.String("out", "", "output edge-list path (required)")
		perturb  = flag.String("perturb", "", "perturb this edge-list file instead of generating")
		noiseTyp = flag.String("noise", "one-way", "noise type: one-way, multi-modal, two-way")
		level    = flag.Float64("level", 0.05, "noise level (fraction of edges)")
		truth    = flag.String("truth", "", "write ground-truth permutation here (perturb mode)")
	)
	flag.Parse()

	if *listDS {
		for _, name := range data.Names() {
			d, _ := data.Describe(name)
			fmt.Printf("%-18s n=%-6d m=%-7d %s\n", d.Name, d.N, d.M, d.Kind)
		}
		return
	}
	if *outPath == "" {
		fatal(fmt.Errorf("need -out"))
	}
	rng := rand.New(rand.NewSource(*seed))

	switch {
	case *perturb != "":
		src, srcLabels, err := graphalign.ReadGraphFile(*perturb)
		if err != nil {
			fatal(err)
		}
		pair, err := noise.Apply(src, noise.Type(*noiseTyp), *level, noise.Options{}, rng)
		if err != nil {
			fatal(err)
		}
		if err := graphalign.WriteGraphFile(*outPath, pair.Target); err != nil {
			fatal(err)
		}
		if *truth != "" {
			if err := writeTruth(*truth, srcLabels, pair.Target, pair.TrueMap); err != nil {
				fatal(err)
			}
		}
	case *dataset != "":
		g, err := data.Load(*dataset)
		if err != nil {
			fatal(err)
		}
		if err := graphalign.WriteGraphFile(*outPath, g); err != nil {
			fatal(err)
		}
	case *model != "":
		g, err := gen.Generate(gen.Model(*model), *n, rng)
		if err != nil {
			fatal(err)
		}
		if err := graphalign.WriteGraphFile(*outPath, g); err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("need one of -model, -dataset, -perturb"))
	}
}

// writeTruth writes trueMap as label pairs. The target is written with
// dense integer ids, so node v's label in that file is v itself.
func writeTruth(path string, srcLabels []string, dst *graphalign.Graph, trueMap []int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for u, v := range trueMap {
		if dst.Degree(v) > 0 {
			fmt.Fprintf(w, "%s %d\n", srcLabels[u], v)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "graphgen:", err)
	os.Exit(1)
}

// Scalability probe: how runtime and allocation grow with graph size for
// algorithms of different asymptotic classes (the paper's Figures 11-14 in
// miniature).
//
//	go run ./examples/scalability
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"
	"runtime"
	"text/tabwriter"
	"time"

	"graphalign"
	"graphalign/internal/gen"
	"graphalign/internal/noise"
)

func main() {
	algorithms := []string{"NSD", "REGAL", "LREA", "IsoRank", "GRASP"}
	sizes := []int{256, 512, 1024}

	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(w, "n\talgorithm\tsimilarity time\talloc")
	for _, n := range sizes {
		rng := rand.New(rand.NewSource(int64(n)))
		deg := gen.NormalDegrees(n, 10, 2, rng)
		base := gen.ConfigurationModel(deg, rng)
		pair, err := noise.Apply(base, noise.OneWay, 0.01, noise.Options{}, rng)
		if err != nil {
			log.Fatal(err)
		}
		for _, name := range algorithms {
			a, err := graphalign.NewAligner(name)
			if err != nil {
				log.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := time.Now()
			if _, err := a.Similarity(context.Background(), pair.Source, pair.Target); err != nil {
				log.Fatal(err)
			}
			elapsed := time.Since(start)
			runtime.ReadMemStats(&after)
			alloc := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
			fmt.Fprintf(w, "%d\t%s\t%s\t%.1fMB\n", n, name, elapsed.Round(time.Millisecond), alloc)
		}
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nSimilarity-stage time only, as in the paper (assignment excluded).")
}

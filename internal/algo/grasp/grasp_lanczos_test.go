package grasp

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"graphalign/internal/cache"
	"graphalign/internal/gen"
	"graphalign/internal/graph"
	"graphalign/internal/linalg"
)

// TestLanczosPathMatchesDense exercises the sparse eigensolver branch used
// for graphs above 400 nodes and cross-checks it against the dense solver.
func TestLanczosPathMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := gen.PowerlawCluster(450, 3, 0.3, rng)
	k := 8
	lv, lvec, err := cache.LaplacianEigs(context.Background(), nil, g, k, 1)
	if err != nil {
		t.Fatal(err)
	}
	lap := graph.NormalizedLaplacian(g).ToDense()
	dv, _, err := linalg.SymEigenCtx(context.Background(), lap)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		if math.Abs(lv[i]-dv[i]) > 1e-6*(1+math.Abs(dv[i])) && math.Abs(lv[i]-dv[i]) > 5e-5 {
			t.Errorf("eigenvalue %d: lanczos %v vs dense %v", i, lv[i], dv[i])
		}
	}
	// Residual check on the Ritz vectors.
	for c := 0; c < k; c++ {
		v := make([]float64, g.N())
		for i := range v {
			v[i] = lvec.At(i, c)
		}
		av := lap.MulVec(v)
		for i := range v {
			if r := math.Abs(av[i] - lv[c]*v[i]); r > 5e-4 {
				t.Fatalf("vector %d residual %v at row %d", c, r, i)
			}
		}
	}
}

// TestGRASPOnLargerGraph runs the full GRASP pipeline through the Lanczos
// branch.
func TestGRASPOnLargerGraph(t *testing.T) {
	if testing.Short() {
		t.Skip("larger-graph test")
	}
	rng := rand.New(rand.NewSource(4))
	base := gen.PowerlawCluster(450, 3, 0.3, rng)
	perm := graph.RandomPermutation(base.N(), rng)
	target, err := graph.Permute(base, perm)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := New().Similarity(context.Background(), base, target)
	if err != nil {
		t.Fatal(err)
	}
	if sim.Rows != 450 || sim.Cols != 450 {
		t.Fatal("shape wrong")
	}
}

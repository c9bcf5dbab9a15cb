package assign

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"graphalign/internal/matrix"
)

// Benchmarks backing BENCH_assign.json (see scripts/bench_assign.sh): the
// dense exact solver vs the sparse candidate+auction pipeline, candidate
// generation on its own, and the rewritten NN/SG extractors.

// benchSizes matches the fig11 scal-grid node counts at the default scale
// (2^8..2^11); 2048 is the grid's largest size.
func benchSizes() []int { return []int{256, 512, 1024, 2048} }

func BenchmarkSolveJV(b *testing.B) {
	for _, n := range benchSizes() {
		sim := randomSim(n, n, int64(n))
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				SolveJV(sim)
			}
		})
	}
}

func BenchmarkAuctionPipeline(b *testing.B) {
	// Candidate generation + auction solve: the full sparse assignment stage
	// as core.RunInstance executes it for a non-embedding aligner.
	for _, n := range benchSizes() {
		sim := randomSim(n, n, int64(n))
		b.Run(fmt.Sprintf("n%d/k16", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c := TopK(DenseScorer{sim}, 16, 1)
				if _, _, _, ok := SolveAuction(c, 1); !ok {
					b.Fatal("auction fell back")
				}
			}
		})
	}
}

func BenchmarkSolveAuction(b *testing.B) {
	// Auction solve alone over precomputed candidates.
	for _, n := range benchSizes() {
		sim := randomSim(n, n, int64(n))
		c := TopK(DenseScorer{sim}, 16, 1)
		b.Run(fmt.Sprintf("n%d/k16", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, _, ok := SolveAuction(c, 1); !ok {
					b.Fatal("auction fell back")
				}
			}
		})
	}
}

func BenchmarkTopKDense(b *testing.B) {
	for _, n := range benchSizes() {
		sim := randomSim(n, n, int64(n))
		b.Run(fmt.Sprintf("n%d/k16", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				TopK(DenseScorer{sim}, 16, 1)
			}
		})
	}
}

func BenchmarkTopKEmbedding(b *testing.B) {
	// Candidate generation straight from embeddings through the one fused
	// k-NN scan, at d=8 so the rows stay comparable with the committed
	// baseline. The aligners' real widths are wider: REGAL emits
	// 10·log2(n_src+n_dst)+1 ≈ 121 dims at n=2048, GRASP at least 100 at
	// any size (DESIGN.md §12). At those widths the honest dense comparison
	// must also pay materialization, see TopKEmbeddingWide vs
	// EmbeddingDensePath.
	for _, n := range benchSizes() {
		e := testEmbedding(n, n, 8, int64(n))
		b.Run(fmt.Sprintf("n%d/k16", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				TopK(e, 16, 1)
			}
		})
	}
}

func BenchmarkTopKEmbeddingWide(b *testing.B) {
	// The wide regime (d=64): brute-force distance scan, O(n m d). Compare
	// against EmbeddingDensePath — the pipeline it replaces — not against
	// dense top-k alone, whose input someone already paid O(n m d) to build.
	e := testEmbedding(2048, 2048, 64, 2048)
	b.Run("n2048/k16/d64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			TopK(e, 16, 1)
		}
	})
}

func BenchmarkEmbeddingDensePath(b *testing.B) {
	// What the dense pipeline actually costs an embedding aligner at d=64:
	// materialize the n x m similarity (PairwiseSqDist + kernel), then
	// select top-k rows.
	e := testEmbedding(2048, 2048, 64, 2048)
	b.Run("n2048/k16/d64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			TopK(DenseScorer{e.Similarity()}, 16, 1)
		}
	})
}

func BenchmarkTopKFactor(b *testing.B) {
	// Factored candidate generation at rank 48 (NSD's shape: 3 components
	// x 16 power-series terms), never materializing the n x m product.
	for _, n := range benchSizes() {
		f := testFactor(n, n, 48, int64(n))
		b.Run(fmt.Sprintf("n%d/k16/r48", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				TopK(f, 16, 1)
			}
		})
	}
}

func BenchmarkFactorDensePath(b *testing.B) {
	// The dense pipeline for a factored aligner: densify the rank-48 product
	// (48 outer-product accumulations into an n x m matrix), then select.
	f := testFactor(2048, 2048, 48, 2048)
	b.Run("n2048/k16/r48", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			TopK(DenseScorer{f.Similarity()}, 16, 1)
		}
	})
}

func BenchmarkSolveNN(b *testing.B) {
	for _, n := range benchSizes() {
		sim := randomSim(n, n, int64(n))
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				SolveNN(sim)
			}
		})
	}
}

func BenchmarkSolveGreedy(b *testing.B) {
	for _, n := range benchSizes() {
		sim := randomSim(n, n, int64(n))
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				SolveGreedy(sim)
			}
		})
	}
}

func BenchmarkSolveGreedyReference(b *testing.B) {
	// The original full-sort SortGreedy, for before/after comparison with the
	// lazy stream-merge SolveGreedy above.
	for _, n := range benchSizes() {
		sim := randomSim(n, n, int64(n))
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				solveGreedyReference(sim)
			}
		})
	}
}

// BenchmarkUpdateTopK is one exact reserve update at the evolving workload's
// shape: n=600 REGAL-width (d=103) embeddings, a depth-2K reserve for K=10,
// and 150 target rows nudged the way a pinned-basis refresh moves them.
// Rebuild is the bulk TopK at the same depth the update replaces.
func BenchmarkUpdateTopK(b *testing.B) {
	const n, d, k, moved = 600, 103, 10, 150
	// Unit rows and exp(-d2) similarities, as REGAL stores them.
	e := testEmbedding(n, n, d, 600)
	e.SimFromDist2 = func(d2 float64) float64 { return math.Exp(-d2) }
	for i := 0; i < n; i++ {
		matrix.Normalize(e.Src.Row(i))
		matrix.Normalize(e.Dst.Row(i))
	}
	e2 := e.Clone()
	rng := rand.New(rand.NewSource(601))
	cols := rng.Perm(n)[:moved]
	for _, j := range cols {
		row := e2.Dst.Row(j)
		for t := range row {
			row[t] += 0.01 * rng.NormFloat64()
		}
		matrix.Normalize(row)
	}
	prev := TopK(e, 2*k, 1)
	b.Run(fmt.Sprintf("n%d/d%d/moved%d/depth%d", n, d, moved, 2*k), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			UpdateTopK(prev, e2, nil, cols, k, 1)
		}
	})
	b.Run(fmt.Sprintf("n%d/d%d/rebuild/depth%d", n, d, 2*k), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			TopK(e2, 2*k, 1)
		}
	})
}

package assign

import (
	"testing"
	"testing/quick"

	"graphalign/internal/matrix"
)

func TestGreedyTopKFullEqualsGreedy(t *testing.T) {
	f := func(seed int64) bool {
		sim := randomSim(8, 8, seed)
		full := SolveGreedy(sim)
		topAll := SolveGreedySparse(TopK(DenseScorer{Sim: sim}, 8, 1))
		for i := range full {
			if full[i] != topAll[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestGreedyTopKOneToOneAndComplete(t *testing.T) {
	f := func(seed int64) bool {
		sim := randomSim(10, 12, seed)
		m := SolveGreedySparse(TopK(DenseScorer{Sim: sim}, 2, 1))
		return isOneToOne(m, 12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestGreedyTopKQualityNearGreedy(t *testing.T) {
	// On a similarity matrix with a clear diagonal signal, top-3 greedy
	// should recover nearly the same total as full greedy.
	n := 40
	sim := matrix.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := 0.1
			if i == j {
				v = 1
			}
			sim.Set(i, j, v)
		}
	}
	full := TotalSimilarity(sim, SolveGreedy(sim))
	topk := TotalSimilarity(sim, SolveGreedySparse(TopK(DenseScorer{Sim: sim}, 3, 1)))
	if topk < full*0.99 {
		t.Errorf("top-k total %v well below full %v", topk, full)
	}
}

func TestGreedyTopKDegenerateK(t *testing.T) {
	sim := randomSim(5, 5, 1)
	for _, k := range []int{0, -3, 100} {
		m := SolveGreedySparse(TopK(DenseScorer{Sim: sim}, k, 1))
		if !isOneToOne(m, 5) {
			t.Errorf("k=%d mapping invalid: %v", k, m)
		}
	}
}

func TestGreedyTopKRectangularMaximality(t *testing.T) {
	// On n > m instances every column must end up used: the matching is
	// maximal, with exactly n-m rows left unmatched (-1). Before the
	// fallback was shape-restricted to n <= m, starved rows stayed at -1
	// even while free columns remained.
	f := func(seed int64) bool {
		n, m := 12, 8
		sim := randomSim(n, m, seed)
		mapping := SolveGreedySparse(TopK(DenseScorer{Sim: sim}, 2, 1))
		usedCol := make([]bool, m)
		matched := 0
		for _, j := range mapping {
			if j == -1 {
				continue
			}
			if j < 0 || j >= m || usedCol[j] {
				return false
			}
			usedCol[j] = true
			matched++
		}
		return matched == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestGreedyTopKRectangularStarved(t *testing.T) {
	// Deterministic n > m starvation: all four rows prefer column 0 and
	// with k=1 see nothing else, so three rows starve; two of them must
	// still claim the remaining free columns.
	sim := matrix.DenseFromRows([][]float64{
		{1, 0, 0},
		{0.9, 0, 0},
		{0.8, 0, 0},
		{0.7, 0, 0},
	})
	mapping := SolveGreedySparse(TopK(DenseScorer{Sim: sim}, 1, 1))
	usedCol := make([]bool, 3)
	matched := 0
	for _, j := range mapping {
		if j == -1 {
			continue
		}
		if usedCol[j] {
			t.Fatalf("column %d matched twice: %v", j, mapping)
		}
		usedCol[j] = true
		matched++
	}
	if matched != 3 {
		t.Errorf("matched %d of 3 columns, mapping %v — matching not maximal", matched, mapping)
	}
}

func TestGreedyTopKStarvedRowsFallBack(t *testing.T) {
	// All rows prefer column 0; with k=1 only one row gets it and the rest
	// must fall back to free columns.
	sim := matrix.DenseFromRows([][]float64{
		{1, 0, 0},
		{0.9, 0, 0},
		{0.8, 0, 0},
	})
	m := SolveGreedySparse(TopK(DenseScorer{Sim: sim}, 1, 1))
	if !isOneToOne(m, 3) {
		t.Fatalf("starved mapping invalid: %v", m)
	}
}

// BenchmarkSolveGreedyTopK exercises the k ≪ m regime where bounded-heap
// partial selection (O(m log k) per row) beats the former full per-row
// sort (O(m log m)).
func BenchmarkSolveGreedyTopK(b *testing.B) {
	const n, m, k = 500, 2000, 8
	sim := randomSim(n, m, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SolveGreedySparse(TopK(DenseScorer{Sim: sim}, k, 1))
	}
}

func BenchmarkSolveGreedyTopKFull(b *testing.B) {
	const n, m = 500, 2000
	sim := randomSim(n, m, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SolveGreedySparse(TopK(DenseScorer{Sim: sim}, m, 1))
	}
}

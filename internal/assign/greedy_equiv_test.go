package assign

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"graphalign/internal/matrix"
)

// solveGreedyReference is the original full-sort SortGreedy implementation,
// kept as the oracle for the lazy stream-merge SolveGreedy: materialize all
// n*m pairs, sort by (v desc, i asc, j asc), accept whenever both endpoints
// are free.
func solveGreedyReference(sim *matrix.Dense) []int {
	n, m := sim.Rows, sim.Cols
	pairs := make([]pair, 0, n*m)
	for i := 0; i < n; i++ {
		row := sim.Row(i)
		for j, v := range row {
			pairs = append(pairs, pair{i, j, v})
		}
	}
	sort.Slice(pairs, func(a, b int) bool {
		if pairs[a].v != pairs[b].v {
			return pairs[a].v > pairs[b].v
		}
		if pairs[a].i != pairs[b].i {
			return pairs[a].i < pairs[b].i
		}
		return pairs[a].j < pairs[b].j
	})
	mapping := make([]int, n)
	for i := range mapping {
		mapping[i] = -1
	}
	usedCol := make([]bool, m)
	matched := 0
	for _, p := range pairs {
		if matched == n {
			break
		}
		if mapping[p.i] != -1 || usedCol[p.j] {
			continue
		}
		mapping[p.i] = p.j
		usedCol[p.j] = true
		matched++
	}
	return mapping
}

func assertSameMapping(t *testing.T, name string, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: row %d: got %d, want %d\ngot  %v\nwant %v", name, i, got[i], want[i], got, want)
		}
	}
}

func TestSolveGreedyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20260806))
	regimes := []struct {
		name string
		draw func() float64
	}{
		{"uniform", func() float64 { return rng.Float64() }},
		// Coarse quantization floods the pair stream with exact ties, the
		// regime where lazy merging is most likely to diverge from full sort.
		{"quantized", func() float64 { return float64(rng.Intn(3)) }},
		{"constant", func() float64 { return 1.0 }},
		{"zero", func() float64 { return 0 }},
	}
	for _, reg := range regimes {
		t.Run(reg.name, func(t *testing.T) {
			for trial := 0; trial < 40; trial++ {
				// Square, wide (n < m), and tall (n > m) shapes.
				n := 1 + rng.Intn(14)
				m := 1 + rng.Intn(14)
				sim := matrix.NewDense(n, m)
				for i := range sim.Data {
					sim.Data[i] = reg.draw()
				}
				assertSameMapping(t, reg.name, SolveGreedy(sim), solveGreedyReference(sim))
			}
		})
	}
}

func TestSolveGreedyMatchesReferenceLarge(t *testing.T) {
	// Large enough that streams refill (buffer doubling) several times:
	// adversarial column-collision structure where every row prefers the
	// same few columns.
	rng := rand.New(rand.NewSource(5))
	n, m := 120, 40
	sim := matrix.NewDense(n, m)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			// Strong shared preference for low columns plus small noise.
			sim.Set(i, j, float64(m-j)+0.001*rng.Float64())
		}
	}
	assertSameMapping(t, "collide", SolveGreedy(sim), solveGreedyReference(sim))

	// And a wide instance with pure ties everywhere except a diagonal.
	n, m = 60, 200
	sim = matrix.NewDense(n, m)
	for i := 0; i < n; i++ {
		sim.Set(i, (i*7)%m, 1)
	}
	assertSameMapping(t, "sparse-ones", SolveGreedy(sim), solveGreedyReference(sim))
}

func TestSolveGreedyEmpty(t *testing.T) {
	if got := SolveGreedy(matrix.NewDense(0, 5)); len(got) != 0 {
		t.Fatalf("empty rows: %v", got)
	}
	got := SolveGreedy(matrix.NewDense(3, 0))
	for _, j := range got {
		if j != -1 {
			t.Fatalf("zero cols should leave rows unmatched: %v", got)
		}
	}
}

func TestSolveNNTieLowestColumn(t *testing.T) {
	sim := matrix.DenseFromRows([][]float64{
		{0.5, 0.9, 0.9, 0.1},
		{0.7, 0.7, 0.7, 0.7},
		{0, 0, 0, 0},
	})
	want := []int{1, 0, 0}
	assertSameMapping(t, "nn-ties", SolveNN(sim), want)
}

func TestSolveNNParallelIdentical(t *testing.T) {
	// 512x512 = 2^18 crosses candidateBudget, exercising the row-blocked path;
	// compare against a plain serial argmax.
	sim := randomSim(512, 512, 21)
	got := SolveNN(sim)
	for i := 0; i < sim.Rows; i++ {
		row := sim.Row(i)
		best := 0
		for j, v := range row {
			if v > row[best] {
				best = j
			}
		}
		if got[i] != best {
			t.Fatalf("row %d: parallel NN %d != serial argmax %d", i, got[i], best)
		}
	}
}

func TestSolveNNSparseMatchesDenseNN(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		n, m := 1+rng.Intn(10), 1+rng.Intn(14)
		sim := matrix.NewDense(n, m)
		for i := range sim.Data {
			sim.Data[i] = float64(rng.Intn(5)) // ties abound
		}
		k := 1 + rng.Intn(m)
		c := TopK(DenseScorer{sim}, k, 1)
		sparse := SolveNNSparse(c)
		dense := SolveNN(sim)
		// Each row's best candidate is its global argmax whenever k >= 1:
		// top-k always contains the row maximum with the same tie rule.
		assertSameMapping(t, "nn-sparse", sparse, dense)
	}
}

func TestEnforceOneToOneSparseMatchesDenseAtFullK(t *testing.T) {
	// With k = m the candidate set is the whole matrix, so the sparse
	// one-to-one restriction must reproduce the dense one exactly — including
	// the contested-column and loser-reassignment rules.
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		n, m := 1+rng.Intn(10), 1+rng.Intn(12)
		if n > m {
			n, m = m, n
		}
		sim := matrix.NewDense(n, m)
		for i := range sim.Data {
			sim.Data[i] = float64(rng.Intn(4))
		}
		c := TopK(DenseScorer{sim}, m, 1)
		nn := SolveNN(sim)
		got := EnforceOneToOneSparse(c, nn)
		want := EnforceOneToOne(sim, nn)
		assertSameMapping(t, "enforce-full-k", got, want)
	}
}

func TestEnforceOneToOneSparseIsOneToOneAndMaximal(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(10)
		m := n + rng.Intn(5)
		sim := matrix.NewDense(n, m)
		for i := range sim.Data {
			sim.Data[i] = rng.Float64()
		}
		k := 1 + rng.Intn(m)
		c := TopK(DenseScorer{sim}, k, 1)
		out := EnforceOneToOneSparse(c, SolveNNSparse(c))
		if !isOneToOne(out, m) {
			t.Fatalf("trial %d: not one-to-one: %v", trial, out)
		}
		for i, j := range out {
			if j == -1 && n <= m {
				t.Fatalf("trial %d: row %d unmatched with free columns available: %v", trial, i, out)
			}
		}
	}
}

func TestSolveGreedySparseStarvedFallback(t *testing.T) {
	// All rows share one candidate column: greedy matches row 0 to column 0,
	// starved rows take the lowest free columns in ascending row order.
	c := candidatesFromRows(
		[][]int{{0}, {0}, {0}},
		[][]float64{{1}, {0.9}, {0.8}}, 4)
	got := SolveGreedySparse(c)
	assertSameMapping(t, "sg-starved", got, []int{0, 1, 2})
}

// TestSolveGreedySparseMatchesReference checks the sparse greedy against
// the full-sort reference when every column is a candidate. Values are
// quantized so that ties are common, and some are NaN, which the value
// comparison does not order: the two must still agree pair for pair.
func TestSolveGreedySparseMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(30)
		m := 1 + rng.Intn(30)
		sim := matrix.NewDense(n, m)
		cols := make([][]int, n)
		vals := make([][]float64, n)
		for i := range cols {
			for j := 0; j < m; j++ {
				v := float64(rng.Intn(5)) / 4
				if trial%2 == 1 && rng.Intn(10) == 0 {
					v = math.NaN()
				}
				sim.Set(i, j, v)
				cols[i] = append(cols[i], j)
				vals[i] = append(vals[i], v)
			}
		}
		got := SolveGreedySparse(candidatesFromRows(cols, vals, m))
		assertSameMapping(t, "sparse-vs-reference", got, solveGreedyReference(sim))
	}
}

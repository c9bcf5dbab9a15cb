package assign

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"graphalign/internal/matrix"
)

func randomSim(rows, cols int, seed int64) *matrix.Dense {
	rng := rand.New(rand.NewSource(seed))
	m := matrix.NewDense(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.Float64()
	}
	return m
}

// bruteForceBest returns the optimal total similarity over all one-to-one
// assignments of rows to columns (rows <= cols), by exhaustive permutation.
func bruteForceBest(sim *matrix.Dense) float64 {
	n, m := sim.Rows, sim.Cols
	used := make([]bool, m)
	var rec func(i int) float64
	rec = func(i int) float64 {
		if i == n {
			return 0
		}
		best := math.Inf(-1)
		for j := 0; j < m; j++ {
			if used[j] {
				continue
			}
			used[j] = true
			if v := sim.At(i, j) + rec(i+1); v > best {
				best = v
			}
			used[j] = false
		}
		return best
	}
	return rec(0)
}

func isOneToOne(mapping []int, cols int) bool {
	seen := make([]bool, cols)
	for _, j := range mapping {
		if j < 0 || j >= cols {
			return false
		}
		if seen[j] {
			return false
		}
		seen[j] = true
	}
	return true
}

func TestSolveNN(t *testing.T) {
	sim := matrix.DenseFromRows([][]float64{
		{0.1, 0.9, 0.2},
		{0.3, 0.8, 0.1},
	})
	m := SolveNN(sim)
	if m[0] != 1 || m[1] != 1 {
		t.Errorf("NN mapping = %v (many-to-one expected here)", m)
	}
}

func TestSolveGreedy(t *testing.T) {
	sim := matrix.DenseFromRows([][]float64{
		{0.9, 0.8},
		{0.85, 0.1},
	})
	m := SolveGreedy(sim)
	// Pair (0,0)=0.9 first, then (1,?) must take column 1.
	if m[0] != 0 || m[1] != 1 {
		t.Errorf("greedy mapping = %v, want [0 1]", m)
	}
	if !isOneToOne(m, 2) {
		t.Error("greedy must be one-to-one")
	}
}

func TestGreedyVsOptimalGap(t *testing.T) {
	// Classic case where greedy is suboptimal.
	sim := matrix.DenseFromRows([][]float64{
		{10, 9},
		{9, 1},
	})
	g := SolveGreedy(sim)
	h := SolveHungarian(sim)
	if TotalSimilarity(sim, g) >= TotalSimilarity(sim, h) {
		t.Skip("greedy found optimum here; gap case needs the exact matrix above")
	}
	if TotalSimilarity(sim, h) != 18 {
		t.Errorf("optimal = %v, want 18", TotalSimilarity(sim, h))
	}
}

func TestPropertyHungarianOptimal(t *testing.T) {
	f := func(seed int64) bool {
		sim := randomSim(5, 5, seed)
		m := SolveHungarian(sim)
		if !isOneToOne(m, 5) {
			return false
		}
		return math.Abs(TotalSimilarity(sim, m)-bruteForceBest(sim)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPropertyJVOptimal(t *testing.T) {
	f := func(seed int64) bool {
		sim := randomSim(5, 5, seed)
		m := SolveJV(sim)
		if !isOneToOne(m, 5) {
			return false
		}
		return math.Abs(TotalSimilarity(sim, m)-bruteForceBest(sim)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPropertyJVRectangular(t *testing.T) {
	f := func(seed int64) bool {
		sim := randomSim(4, 7, seed)
		m := SolveJV(sim)
		if !isOneToOne(m, 7) {
			return false
		}
		return math.Abs(TotalSimilarity(sim, m)-bruteForceBest(sim)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPropertyHungarianRectangular(t *testing.T) {
	f := func(seed int64) bool {
		sim := randomSim(3, 6, seed)
		m := SolveHungarian(sim)
		if !isOneToOne(m, 6) {
			return false
		}
		return math.Abs(TotalSimilarity(sim, m)-bruteForceBest(sim)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPropertyJVEqualsHungarian(t *testing.T) {
	f := func(seed int64) bool {
		sim := randomSim(8, 8, seed)
		jv := SolveJV(sim)
		hu := SolveHungarian(sim)
		return math.Abs(TotalSimilarity(sim, jv)-TotalSimilarity(sim, hu)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestJVWithNegativeSimilarities(t *testing.T) {
	// GRASP uses negated distances, so JV must handle negative entries.
	sim := matrix.DenseFromRows([][]float64{
		{-1, -5},
		{-4, -2},
	})
	m := SolveJV(sim)
	if TotalSimilarity(sim, m) != -3 {
		t.Errorf("JV total = %v, want -3", TotalSimilarity(sim, m))
	}
}

func TestSolveDispatch(t *testing.T) {
	sim := randomSim(3, 3, 1)
	for _, method := range Methods() {
		m, err := Solve(method, sim)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if len(m) != 3 {
			t.Fatalf("%s: mapping length %d", method, len(m))
		}
	}
	if _, err := Solve(Method("bogus"), sim); err == nil {
		t.Error("unknown method accepted")
	}
	if _, err := Solve(SortGreedy, randomSim(4, 2, 2)); err == nil {
		t.Error("rows > cols accepted")
	}
}

func TestEnforceOneToOne(t *testing.T) {
	sim := matrix.DenseFromRows([][]float64{
		{0.9, 0.1, 0.5},
		{0.8, 0.2, 0.1},
		{0.1, 0.3, 0.2},
	})
	nn := SolveNN(sim) // rows 0 and 1 both pick column 0
	if nn[0] != 0 || nn[1] != 0 {
		t.Fatalf("test setup: nn = %v", nn)
	}
	fixed := EnforceOneToOne(sim, nn)
	if !isOneToOne(fixed, 3) {
		t.Fatalf("EnforceOneToOne output %v not one-to-one", fixed)
	}
	// Row 0 wins column 0 (0.9 > 0.8); row 1 re-assigned.
	if fixed[0] != 0 {
		t.Errorf("row 0 should keep its column: %v", fixed)
	}
}

func TestEmptyProblems(t *testing.T) {
	empty := matrix.NewDense(0, 0)
	if m := SolveHungarian(empty); len(m) != 0 {
		t.Error("empty Hungarian should return empty mapping")
	}
	if m := SolveJV(empty); len(m) != 0 {
		t.Error("empty JV should return empty mapping")
	}
	if m := SolveGreedy(empty); len(m) != 0 {
		t.Error("empty greedy should return empty mapping")
	}
}

func TestSolversOnConstantMatrix(t *testing.T) {
	// All-equal similarities: every solver must terminate with a valid
	// one-to-one mapping (ties are the worst case for augmenting-path
	// solvers).
	sim := matrix.NewDense(6, 6)
	sim.Fill(0.5)
	for _, method := range Methods() {
		m, err := Solve(method, sim)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if method != NearestNeighbor && !isOneToOne(m, 6) {
			t.Errorf("%s: mapping %v not one-to-one on constant matrix", method, m)
		}
	}
}

func TestSolversOnZeroMatrix(t *testing.T) {
	sim := matrix.NewDense(4, 4)
	for _, method := range []Method{SortGreedy, Hungarian, JonkerVolgenant} {
		m, err := Solve(method, sim)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if !isOneToOne(m, 4) {
			t.Errorf("%s: zero matrix mapping %v", method, m)
		}
	}
}

// The exact solvers rank NaN below every number: a row of NaN, scattered
// NaN and an all-NaN matrix each still get a one-to-one mapping, and a
// diagonal that beats every other number keeps its cells. A raw
// NaN made JV index column -1 and kept the Hungarian search open forever,
// so each solve runs under a deadline.
func TestExactSolversOnNaN(t *testing.T) {
	nan := math.NaN()
	diag := func(rows, cols int, nanAt func(i, j int) bool) *matrix.Dense {
		sim := randomSim(rows, cols, 7)
		for i := 0; i < rows; i++ {
			sim.Set(i, i, 10)
			for j := 0; j < cols; j++ {
				if nanAt(i, j) {
					sim.Set(i, j, nan)
				}
			}
		}
		return sim
	}
	for _, tc := range []struct {
		name     string
		sim      *matrix.Dense
		identity bool
	}{
		{"all-NaN row", diag(4, 4, func(i, _ int) bool { return i == 2 }), true},
		{"all-NaN row, rectangular", diag(3, 5, func(i, _ int) bool { return i == 1 }), true},
		{"scattered NaN", diag(6, 6, func(i, j int) bool { return i != j && (i+2*j)%3 == 0 }), true},
		{"all-NaN matrix", diag(4, 4, func(int, int) bool { return true }), false},
	} {
		for _, method := range []Method{Hungarian, JonkerVolgenant} {
			done := make(chan []int, 1)
			go func() {
				m, _ := Solve(method, tc.sim)
				done <- m
			}()
			var m []int
			select {
			case m = <-done:
			case <-time.After(10 * time.Second):
				t.Fatalf("%s %s: no result within 10s", tc.name, method)
			}
			if !isOneToOne(m, tc.sim.Cols) {
				t.Fatalf("%s %s: mapping %v not one-to-one", tc.name, method, m)
			}
			for i, j := range m {
				if tc.identity && tc.sim.At(i, i) == 10 && j != i {
					t.Errorf("%s %s: mapping %v, want every number-valued diagonal", tc.name, method, m)
					break
				}
			}
		}
	}
}

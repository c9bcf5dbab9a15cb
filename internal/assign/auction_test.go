package assign

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"graphalign/internal/matrix"
)

// auctionTolerance is the theoretical optimality gap of ε-scaling auction:
// the assignment it returns is within persons·ε_final of the optimum over
// the candidate graph. The extra 1e-9 absorbs float accumulation noise.
func auctionTolerance(persons int, stats SparseStats) float64 {
	return float64(persons)*stats.FinalEps + 1e-9
}

// Satellite 3: auction-with-fallback agrees with SolveJV on total similarity
// within the ε-scaling bound, across random dense instances (full candidate
// set, so both solvers see the same problem).
func TestAuctionAgreesWithJVDense(t *testing.T) {
	rng := rand.New(rand.NewSource(20260806))
	regimes := []struct {
		name string
		draw func() float64
	}{
		{"uniform", func() float64 { return rng.Float64() }},
		{"quantized", func() float64 { return float64(rng.Intn(4)) / 3 }},
		{"shifted", func() float64 { return rng.Float64() + 5 }},
		{"spread", func() float64 { return rng.Float64() * 1000 }},
	}
	for _, reg := range regimes {
		t.Run(reg.name, func(t *testing.T) {
			for trial := 0; trial < 40; trial++ {
				n := 1 + rng.Intn(8)
				m := n + rng.Intn(4) // includes rectangular n < m
				sim := matrix.NewDense(n, m)
				for i := range sim.Data {
					sim.Data[i] = reg.draw()
				}
				c := TopK(DenseScorer{sim}, m, 1) // full candidate set
				mapping, _, stats, ok := SolveAuction(c, 1)
				if !ok {
					t.Fatalf("trial %d: auction failed on a full candidate set", trial)
				}
				checkOneToOne(t, "auction", mapping, m)
				got := TotalSimilarity(sim, mapping)
				want := TotalSimilarity(sim, SolveJV(sim))
				if diff := want - got; diff > auctionTolerance(m, stats) {
					t.Fatalf("trial %d (%d x %d): auction total %v vs JV %v, gap %v > tol %v",
						trial, n, m, got, want, diff, auctionTolerance(m, stats))
				}
			}
		})
	}
}

// bandedInstance builds an n x m similarity whose optimum lives on a band
// j in [i-b, i+b]: in-band entries are uniform in [0,1), out-of-band entries
// carry a -1e3 mask. Any full matching using a masked edge scores below any
// all-in-band matching (identity is always feasible), so the dense optimum
// equals the band-restricted optimum while keeping the value spread — and
// hence ε_final and the comparison tolerance — small.
func bandedInstance(n, m, b int, rng *rand.Rand) *matrix.Dense {
	sim := matrix.NewDense(n, m)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			if j >= i-b && j <= i+b {
				sim.Set(i, j, rng.Float64())
			} else {
				sim.Set(i, j, -1e3)
			}
		}
	}
	return sim
}

func TestAuctionAgreesWithJVBanded(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(10)
		m := n + rng.Intn(3)
		b := 1 + rng.Intn(3)
		sim := bandedInstance(n, m, b, rng)
		c := TopK(DenseScorer{sim}, 2*b+1, 1)
		mapping, stats, err := SolveSparse(JonkerVolgenant, c, DenseScorer{sim}, 1)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkOneToOne(t, "auction-banded", mapping, m)
		got := TotalSimilarity(sim, mapping)
		want := TotalSimilarity(sim, SolveJV(sim))
		// The candidate graph contains the band (top 2b+1 entries per row
		// dominate the mask), so the candidate optimum equals the dense one.
		if diff := want - got; diff > auctionTolerance(m, stats)+1e-6 {
			t.Fatalf("trial %d (n=%d m=%d b=%d): total %v vs JV %v, gap %v (FinalEps=%v, fellback=%v)",
				trial, n, m, b, got, want, diff, stats.FinalEps, stats.FellBack)
		}
	}
}

// The PR 3 starved fixture: three rows all favoring column 0. With k=1 every
// row's only candidate is column 0, the candidate graph is unmatchable, and
// SolveSparse must fall back to dense JV — exactly.
func TestAuctionStarvedFallsBackToJV(t *testing.T) {
	sim := matrix.DenseFromRows([][]float64{
		{1, 0, 0, 0},
		{0.9, 0, 0, 0},
		{0.8, 0, 0, 0},
	})
	c := TopK(DenseScorer{sim}, 1, 1)
	mapping, stats, err := SolveSparse(JonkerVolgenant, c, DenseScorer{sim}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.FellBack {
		t.Fatal("expected FellBack=true on an unmatchable candidate graph")
	}
	want := SolveJV(sim)
	for i := range want {
		if mapping[i] != want[i] {
			t.Fatalf("fallback mapping %v != SolveJV %v", mapping, want)
		}
	}
}

func TestAuctionFallbackWithoutDenseErrors(t *testing.T) {
	sim := matrix.DenseFromRows([][]float64{{1, 0}, {0.9, 0}, {0.8, 0}})
	// Rows > cols is rejected up front.
	c := TopK(DenseScorer{sim}, 2, 1)
	if _, _, err := SolveSparse(JonkerVolgenant, c, nil, 1); err == nil {
		t.Fatal("expected error for rows > cols")
	}
	// Unmatchable graph with no dense fallback available.
	starved := TopK(DenseScorer{matrix.DenseFromRows([][]float64{{1, 0, 0}, {0.9, 0, 0}})}, 1, 1)
	if _, _, err := SolveSparse(JonkerVolgenant, starved, nil, 1); err == nil {
		t.Fatal("expected error when fallback is needed but dense is nil")
	}
}

func TestAuctionEmpty(t *testing.T) {
	mapping, _, _, ok := SolveAuction(&Candidates{}, 1)
	if !ok || len(mapping) != 0 {
		t.Fatalf("empty instance: mapping=%v ok=%v", mapping, ok)
	}
}

// TestSolveSparseMethods: SolveSparse accepts exactly the paper's four
// methods — NN and SG run their candidate-set solvers, both exact methods the
// auction — and rejects any other name.
func TestSolveSparseMethods(t *testing.T) {
	sim := matrix.DenseFromRows([][]float64{
		{0.9, 0.8, 0.1},
		{0.7, 0.2, 0.65},
	})
	c := TopK(DenseScorer{sim}, 2, 1)
	auction, _, _, _ := SolveAuction(c, 1)
	want := map[Method][]int{
		NearestNeighbor: EnforceOneToOneSparse(c, SolveNNSparse(c)),
		SortGreedy:      SolveGreedySparse(c),
		Hungarian:       auction,
		JonkerVolgenant: auction,
	}
	for _, m := range Methods() {
		got, _, err := SolveSparse(m, c, DenseScorer{sim}, 1)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if !slices.Equal(got, want[m]) {
			t.Errorf("%s: mapping %v, want %v", m, got, want[m])
		}
	}
	for _, m := range []Method{"AUC", "nope", ""} {
		if _, _, err := SolveSparse(m, c, DenseScorer{sim}, 1); err == nil {
			t.Errorf("SolveSparse accepted method %q", m)
		}
	}
}

// bandedCandidates builds a matchable banded candidate set directly, sized
// so that n*(K+1) crosses candidateBudget and the parallel bidding path
// engages. Row i's candidates are the clamped band around i, values random;
// the identity edge is always present, so the graph is matchable.
func bandedCandidates(n, halfBand int, rng *rand.Rand) *Candidates {
	k := 2*halfBand + 1
	c := &Candidates{Rows: n, Cols: n, K: k, Col: make([]int, n*k), Val: make([]float64, n*k)}
	for i := 0; i < n; i++ {
		lo := i - halfBand
		if lo < 0 {
			lo = 0
		}
		if lo > n-k {
			lo = n - k
		}
		ps := make([]pair, k)
		for d := 0; d < k; d++ {
			ps[d] = pair{i, lo + d, rng.Float64()}
		}
		// Candidates rows are sorted (v desc, j asc); build that order.
		sortPairsDesc(ps)
		for d, p := range ps {
			c.Col[i*k+d] = p.j
			c.Val[i*k+d] = p.v
		}
	}
	return c
}

func sortPairsDesc(ps []pair) {
	for a := 1; a < len(ps); a++ {
		for b := a; b > 0; b-- {
			if ps[b].v > ps[b-1].v || (ps[b].v == ps[b-1].v && ps[b].j < ps[b-1].j) {
				ps[b], ps[b-1] = ps[b-1], ps[b]
			} else {
				break
			}
		}
	}
}

// Acceptance criterion: the auction result is independent of the worker
// count even when the parallel bidding path is active. n=4096, K=63 makes
// n*(K+1) = 262144 = candidateBudget, the exact gate threshold. Run under
// -race in CI.
func TestAuctionDeterministicAcrossWorkers(t *testing.T) {
	n, halfBand := 4096, 31
	if testing.Short() {
		n, halfBand = 1024, 31 // below the parallel gate but still multi-phase
	}
	rng := rand.New(rand.NewSource(99))
	c := bandedCandidates(n, halfBand, rng)
	if !c.Matchable() {
		t.Fatal("banded candidate set should be matchable")
	}
	ref, _, refStats, ok := SolveAuction(c, 1)
	if !ok {
		t.Fatal("auction failed on a matchable instance")
	}
	checkOneToOne(t, "auction-det", ref, n)
	for _, workers := range []int{2, 4, 8} {
		for rep := 0; rep < 2; rep++ {
			got, _, stats, ok := SolveAuction(c, workers)
			if !ok {
				t.Fatalf("workers=%d rep=%d: auction failed", workers, rep)
			}
			if stats.Rounds != refStats.Rounds || stats.Phases != refStats.Phases {
				t.Fatalf("workers=%d rep=%d: stats (%d rounds, %d phases) != serial (%d, %d)",
					workers, rep, stats.Rounds, stats.Phases, refStats.Rounds, refStats.Phases)
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("workers=%d rep=%d: mapping diverges at row %d: %d != %d",
						workers, rep, i, got[i], ref[i])
				}
			}
		}
	}
}

// Sanity: on the large banded instance the auction total is near the greedy
// upper envelope (every person's best candidate), confirming it is actually
// optimizing rather than just finding a feasible matching.
func TestAuctionQualityOnBanded(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	c := bandedCandidates(512, 8, rng)
	mapping, _, stats, ok := SolveAuction(c, 1)
	if !ok {
		t.Fatal("auction failed")
	}
	var total, upper float64
	for i := 0; i < c.Rows; i++ {
		cols, vals := c.Row(i)
		upper += vals[0] // rows sorted v desc
		for d, j := range cols {
			if j == mapping[i] {
				total += vals[d]
				break
			}
		}
	}
	// Greedy SG on the same candidates is a lower bound achievable by a much
	// dumber algorithm; auction must beat it.
	sg := SolveGreedySparse(c)
	var sgTotal float64
	for i, j := range sg {
		if v, found := candValue(c, i, j); found {
			sgTotal += v
		}
	}
	if total+auctionTolerance(c.Rows, stats) < sgTotal {
		t.Fatalf("auction total %v below greedy %v (upper envelope %v)", total, sgTotal, upper)
	}
	if math.IsNaN(total) {
		t.Fatal("NaN total")
	}
}

func candValue(c *Candidates, i, j int) (float64, bool) {
	cols, vals := c.Row(i)
	for d, cj := range cols {
		if cj == j {
			return vals[d], true
		}
	}
	return 0, false
}

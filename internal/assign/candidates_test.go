package assign

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"graphalign/internal/kdtree"
	"graphalign/internal/matrix"
)

// naiveTopK is the reference candidate selection: full row sort by
// (v desc, j asc), truncated to k.
func naiveTopK(row []float64, k int) []pair {
	ps := make([]pair, len(row))
	for j, v := range row {
		ps[j] = pair{0, j, v}
	}
	sort.Slice(ps, func(a, b int) bool {
		if ps[a].v != ps[b].v {
			return ps[a].v > ps[b].v
		}
		return ps[a].j < ps[b].j
	})
	if k < len(ps) {
		ps = ps[:k]
	}
	return ps
}

func TestTopKDenseMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	regimes := []struct {
		name string
		draw func() float64
	}{
		{"uniform", func() float64 { return rng.Float64() }},
		// Quantized values force heavy ties: the (v desc, j asc) contract is
		// only observable under ties.
		{"quantized", func() float64 { return float64(rng.Intn(3)) }},
		{"negative", func() float64 { return rng.Float64() - 0.5 }},
	}
	for _, reg := range regimes {
		t.Run(reg.name, func(t *testing.T) {
			for trial := 0; trial < 30; trial++ {
				n, m := 1+rng.Intn(12), 1+rng.Intn(20)
				k := 1 + rng.Intn(m)
				sim := matrix.NewDense(n, m)
				for i := range sim.Data {
					sim.Data[i] = reg.draw()
				}
				c := TopKDense(sim, k, 1)
				if c.Rows != n || c.Cols != m || c.K != k {
					t.Fatalf("shape: got (%d,%d,%d) want (%d,%d,%d)", c.Rows, c.Cols, c.K, n, m, k)
				}
				for i := 0; i < n; i++ {
					want := naiveTopK(sim.Row(i), k)
					cols, vals := c.Row(i)
					for idx, w := range want {
						if cols[idx] != w.j || vals[idx] != w.v {
							t.Fatalf("row %d cand %d: got (%d,%v) want (%d,%v)\nrow=%v k=%d",
								i, idx, cols[idx], vals[idx], w.j, w.v, sim.Row(i), k)
						}
					}
				}
			}
		})
	}
}

func TestTopKDenseDegenerateK(t *testing.T) {
	sim := randomSim(4, 6, 3)
	for _, k := range []int{0, -1, 6, 100} {
		c := TopKDense(sim, k, 1)
		if c.K != 6 {
			t.Fatalf("k=%d: got K=%d, want full 6", k, c.K)
		}
	}
}

func TestTopKDenseParallelIdentical(t *testing.T) {
	// 512*512 = 2^18 crosses candidateBudget, engaging the parallel path.
	sim := randomSim(512, 512, 9)
	serial := TopKDense(sim, 16, 1)
	for _, workers := range []int{0, 2, 4} {
		par := TopKDense(sim, 16, workers)
		for i := range serial.Col {
			if serial.Col[i] != par.Col[i] || serial.Val[i] != par.Val[i] {
				t.Fatalf("workers=%d diverges from serial at flat index %d", workers, i)
			}
		}
	}
}

// testEmbedding builds a random low-dimensional embedding pair with the
// exp(-d2) kernel.
func testEmbedding(n, m, d int, seed int64) *Embedding {
	rng := rand.New(rand.NewSource(seed))
	src := matrix.NewDense(n, d)
	dst := matrix.NewDense(m, d)
	for i := range src.Data {
		src.Data[i] = rng.NormFloat64()
	}
	for i := range dst.Data {
		dst.Data[i] = rng.NormFloat64()
	}
	return &Embedding{Src: src, Dst: dst, SimFromDist2: func(d2 float64) float64 { return -d2 }}
}

func TestTopKEmbeddingMatchesDenseTopK(t *testing.T) {
	// d=4 exercises the k-d tree path, d=8 and d=16 the brute-force scan
	// (d >= bruteForceDim); both must agree with dense selection bitwise.
	for _, d := range []int{4, 8, 16} {
		for trial := int64(0); trial < 5; trial++ {
			e := testEmbedding(40, 55, d, 100+trial)
			sim := e.Similarity()
			k := 7
			dense := TopKDense(sim, k, 1)
			emb := TopKEmbedding(e, k, 1)
			if emb.Rows != dense.Rows || emb.Cols != dense.Cols || emb.K != dense.K {
				t.Fatalf("shape mismatch: %+v vs %+v", emb, dense)
			}
			for i := range dense.Col {
				if dense.Col[i] != emb.Col[i] || dense.Val[i] != emb.Val[i] {
					t.Fatalf("d=%d trial %d: k-NN candidates diverge from dense top-k at flat %d: (%d,%v) vs (%d,%v)",
						d, trial, i, emb.Col[i], emb.Val[i], dense.Col[i], dense.Val[i])
				}
			}
		}
	}
}

// TestTopKEmbeddingBruteMatchesTree drives the same instances through both
// internal fill paths explicitly, pinning that the automatic crossover at
// bruteForceDim can never change results.
func TestTopKEmbeddingBruteMatchesTree(t *testing.T) {
	for trial := int64(0); trial < 5; trial++ {
		for _, d := range []int{2, 5, 8, 12} {
			e := testEmbedding(35, 50, d, 900+trial)
			k := 6
			mk := func() *Candidates {
				return &Candidates{Rows: e.Src.Rows, Cols: e.Dst.Rows, K: k,
					Col: make([]int, e.Src.Rows*k), Val: make([]float64, e.Src.Rows*k)}
			}
			points := make([][]float64, e.Dst.Rows)
			for j := range points {
				points[j] = e.Dst.Row(j)
			}
			ct := mk()
			topKEmbeddingTree(kdtree.Build(points), e, ct, 0, e.Src.Rows)
			cb := mk()
			topKEmbeddingBrute(e, cb, 0, e.Src.Rows)
			for i := range ct.Col {
				if ct.Col[i] != cb.Col[i] || ct.Val[i] != cb.Val[i] {
					t.Fatalf("d=%d trial %d: tree and brute paths diverge at flat %d: (%d,%v) vs (%d,%v)",
						d, trial, i, ct.Col[i], ct.Val[i], cb.Col[i], cb.Val[i])
				}
			}
		}
	}
}

// TestTopKEmbeddingAllocFree pins the regression this pipeline exists to
// avoid: candidate generation must not allocate per query (it used to spend
// ~325k allocs at n=2048; the budget below is two orders looser than the
// handful both paths need, and three orders tighter than the regression).
func TestTopKEmbeddingAllocFree(t *testing.T) {
	for _, d := range []int{4, 8} {
		e := testEmbedding(300, 300, d, 55)
		allocs := testing.AllocsPerRun(5, func() {
			TopKEmbedding(e, 16, 1)
		})
		if allocs > 64 {
			t.Errorf("d=%d: TopKEmbedding allocated %v times/op, want <= 64", d, allocs)
		}
	}
}

func TestTopKEmbeddingTiesPreferLowerColumn(t *testing.T) {
	// Duplicate target points force exact distance ties; the contract is
	// ascending column id among ties, matching dense selection.
	src := matrix.DenseFromRows([][]float64{{0, 0}})
	dst := matrix.DenseFromRows([][]float64{{1, 0}, {1, 0}, {0, 0}, {1, 0}})
	e := &Embedding{Src: src, Dst: dst, SimFromDist2: func(d2 float64) float64 { return -d2 }}
	c := TopKEmbedding(e, 3, 1)
	cols, _ := c.Row(0)
	want := []int{2, 0, 1}
	for i, j := range want {
		if cols[i] != j {
			t.Fatalf("tie order: got %v, want %v", cols, want)
		}
	}
}

func TestTopKEmbeddingParallelIdentical(t *testing.T) {
	e := testEmbedding(600, 600, 3, 77)
	serial := TopKEmbedding(e, 8, 1)
	par := TopKEmbedding(e, 8, 4)
	for i := range serial.Col {
		if serial.Col[i] != par.Col[i] || serial.Val[i] != par.Val[i] {
			t.Fatalf("parallel k-NN diverges from serial at flat index %d", i)
		}
	}
}

func candidatesFromRows(cols [][]int, vals [][]float64, m int) *Candidates {
	n := len(cols)
	k := len(cols[0])
	c := &Candidates{Rows: n, Cols: m, K: k, Col: make([]int, n*k), Val: make([]float64, n*k)}
	for i := range cols {
		copy(c.Col[i*k:(i+1)*k], cols[i])
		copy(c.Val[i*k:(i+1)*k], vals[i])
	}
	return c
}

func TestMatchable(t *testing.T) {
	cases := []struct {
		name string
		c    *Candidates
		want bool
	}{
		{"identity", candidatesFromRows([][]int{{0}, {1}, {2}}, [][]float64{{1}, {1}, {1}}, 3), true},
		{"all_same_column", candidatesFromRows([][]int{{0}, {0}, {0}}, [][]float64{{1}, {.9}, {.8}}, 4), false},
		{"chain", candidatesFromRows([][]int{{0, 1}, {1, 2}, {2, 0}}, [][]float64{{1, 1}, {1, 1}, {1, 1}}, 3), true},
		{"bottleneck", candidatesFromRows([][]int{{0, 1}, {0, 1}, {0, 1}}, [][]float64{{1, 1}, {1, 1}, {1, 1}}, 3), false},
		{"rows_exceed_cols", &Candidates{Rows: 3, Cols: 2, K: 0}, false},
		{"empty", &Candidates{Rows: 0, Cols: 0, K: 0}, true},
	}
	for _, tc := range cases {
		if got := tc.c.Matchable(); got != tc.want {
			t.Errorf("%s: Matchable() = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestMatchableMatchesGreedyFeasibilityRandom(t *testing.T) {
	// Cross-check Hopcroft–Karp against brute force on small random graphs.
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(6)
		m := n + rng.Intn(3)
		k := 1 + rng.Intn(minIntTest(3, m))
		cols := make([][]int, n)
		vals := make([][]float64, n)
		for i := range cols {
			perm := rng.Perm(m)[:k]
			sort.Ints(perm)
			cols[i] = perm
			vals[i] = make([]float64, k)
		}
		c := candidatesFromRows(cols, vals, m)
		if got, want := c.Matchable(), bruteMatchable(cols, m, n); got != want {
			t.Fatalf("trial %d: Matchable=%v, brute=%v, cands=%v", trial, got, want, cols)
		}
	}
}

// bruteMatchable tries all ways to match rows to their candidates.
func bruteMatchable(cols [][]int, m, n int) bool {
	used := make([]bool, m)
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == n {
			return true
		}
		for _, j := range cols[i] {
			if !used[j] {
				used[j] = true
				if rec(i + 1) {
					return true
				}
				used[j] = false
			}
		}
		return false
	}
	return rec(0)
}

func minIntTest(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestTopKNaNDistances is the regression for a panic in nnInsert: once the
// selection array was full, a NaN distance passed the !(s >= bound) filter
// and the insert indexed past k. NaN target rows (NaN distance in every
// row) and a NaN source row (NaN distance everywhere in that row) must
// rank after every finite distance, keep ascending-id order among
// themselves, and never displace a finite candidate.
func TestTopKNaNDistances(t *testing.T) {
	const n, m, k = 12, 40, 16
	nanCols := map[int]bool{3: true, 30: true}
	const nanRow = 5
	for _, d := range []int{4, 8, 16} {
		e := testEmbedding(n, m, d, 31)
		for j := range nanCols {
			e.Dst.Row(j)[d-1] = math.NaN()
		}
		e.Src.Row(nanRow)[0] = math.NaN()
		for _, workers := range []int{1, 4} {
			c := TopKEmbedding(e, k, workers)
			for i := 0; i < n; i++ {
				cols, _ := c.Row(i)
				if i == nanRow {
					for idx, j := range cols {
						if j != idx {
							t.Fatalf("d=%d NaN row: candidates %v, want columns 0..%d in id order", d, cols, k-1)
						}
					}
					continue
				}
				// The finite reference: rank the non-NaN columns by
				// (distance, id).
				dist := make([]float64, m)
				matrix.SqDistInto(dist, e.Src.Row(i), e.Dst)
				var finite []int
				for j := 0; j < m; j++ {
					if !nanCols[j] {
						finite = append(finite, j)
					}
				}
				sort.SliceStable(finite, func(a, b int) bool { return dist[finite[a]] < dist[finite[b]] })
				for idx, j := range cols {
					if j != finite[idx] {
						t.Fatalf("d=%d workers=%d row %d: candidates %v, want %v", d, workers, i, cols, finite[:k])
					}
				}
			}
		}
	}

	// The factored path prunes NaN scores instead: the same NaN column and
	// row patterns leave short or empty rows, never a panic.
	f := &FactorEmbedding{Us: [][]float64{make([]float64, n)}, Vs: [][]float64{make([]float64, m)}}
	for i := range f.Us[0] {
		f.Us[0][i] = float64(i + 1)
	}
	for j := range f.Vs[0] {
		f.Vs[0][j] = float64(j)
	}
	for j := range nanCols {
		f.Vs[0][j] = math.NaN()
	}
	f.Us[0][nanRow] = math.NaN()
	for _, workers := range []int{1, 4} {
		c := TopKFactor(f, k, workers)
		for i := 0; i < n; i++ {
			cols, _ := c.Row(i)
			want := k
			if i == nanRow {
				want = 0
			}
			if len(cols) != want {
				t.Fatalf("factor row %d: %d candidates, want %d", i, len(cols), want)
			}
			for _, j := range cols {
				if nanCols[j] {
					t.Fatalf("factor row %d kept NaN column %d", i, j)
				}
			}
		}
	}
}

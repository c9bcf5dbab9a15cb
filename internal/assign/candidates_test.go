package assign

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

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
				c := TopK(DenseScorer{sim}, k, 1)
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

// checkDegenerateK: k <= 0 and k >= cols keep every column.
func checkDegenerateK(t *testing.T, s Scorer) {
	t.Helper()
	_, m := s.Shape()
	for _, k := range []int{0, -1, m, 100} {
		if c := TopK(s, k, 1); c.K != m {
			t.Fatalf("k=%d: got K=%d, want full %d", k, c.K, m)
		}
	}
}

func TestTopKDenseDegenerateK(t *testing.T) { checkDegenerateK(t, DenseScorer{randomSim(4, 6, 3)}) }

// checkParallelIdentical: every worker count selects bitwise what the
// serial pass does.
func checkParallelIdentical(t *testing.T, s Scorer, k int, workers ...int) {
	t.Helper()
	serial := TopK(s, k, 1)
	for _, w := range workers {
		par := TopK(s, k, w)
		for i := range serial.Col {
			if serial.Col[i] != par.Col[i] || serial.Val[i] != par.Val[i] {
				t.Fatalf("workers=%d diverges from serial at flat index %d", w, i)
			}
		}
	}
}

func TestTopKDenseParallelIdentical(t *testing.T) {
	// 512*512 = 2^18 crosses candidateBudget, engaging the parallel path.
	checkParallelIdentical(t, DenseScorer{randomSim(512, 512, 9)}, 16, 0, 2, 4)
}

// TestTopKDenseNaNPruned: a NaN score is never selected. It compares false
// against every bound, so a bounded heap that admits it lets it evict the
// weakest real candidate and never leave: [1, NaN, 2] with k=2 used to
// select [NaN 2].
func TestTopKDenseNaNPruned(t *testing.T) {
	sim := matrix.DenseFromRows([][]float64{{1, math.NaN(), 2}, {3, 1, 2}})
	c := TopK(DenseScorer{sim}, 2, 1)
	cols, vals := c.Row(0)
	if !reflect.DeepEqual(cols, []int{2, 0}) || !reflect.DeepEqual(vals, []float64{2, 1}) {
		t.Fatalf("row 0 = %v %v, want [2 0] [2 1]", cols, vals)
	}
	if c.Len != nil {
		t.Fatalf("Len = %v, want nil: both rows keep k finite scores", c.Len)
	}
	c = TopK(DenseScorer{sim}, 3, 1)
	if cols, _ := c.Row(0); !reflect.DeepEqual(cols, []int{2, 0}) || !reflect.DeepEqual(c.Len, []int{2, 3}) {
		t.Fatalf("k=3: row 0 = %v, Len = %v; want [2 0] and [2 3]", cols, c.Len)
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

// checkMatchesDenseTopK: candidates read off a scorer equal TopK over its
// materialized matrix entry for entry — same columns, bitwise the same
// values — and finite scores leave no short rows.
func checkMatchesDenseTopK(t *testing.T, tag string, s Scorer, k int) {
	t.Helper()
	dense := TopK(DenseScorer{s.Similarity()}, k, 1)
	got := TopK(s, k, 1)
	if got.Rows != dense.Rows || got.Cols != dense.Cols || got.K != dense.K {
		t.Fatalf("%s: shape mismatch: %+v vs %+v", tag, got, dense)
	}
	if got.Len != nil {
		t.Fatalf("%s: finite scores must not set Len", tag)
	}
	for i := range dense.Col {
		if dense.Col[i] != got.Col[i] || dense.Val[i] != got.Val[i] {
			t.Fatalf("%s: candidates diverge from dense top-k at flat %d: (%d,%v) vs (%d,%v)",
				tag, i, got.Col[i], got.Val[i], dense.Col[i], dense.Val[i])
		}
	}
}

// Embedding.ScoreRow runs matrix.SqDistInto and Score the one-chain
// matrix.SqDist; entry for entry they are bitwise equal, NaN included, at
// widths around the eight-chain block and over a target count with a tail.
func TestEmbeddingScoreRowMatchesScore(t *testing.T) {
	for _, d := range []int{1, 7, 8, 9, 103} {
		e := testEmbedding(5, 21, d, int64(d))
		e.Src.Row(3)[0] = math.NaN()
		e.Dst.Row(10)[d-1] = math.NaN()
		e.SimFromDist2 = func(d2 float64) float64 { return math.Exp(-d2 / 8) }
		buf := make([]float64, e.Dst.Rows)
		for i := 0; i < e.Src.Rows; i++ {
			row := e.ScoreRow(i, buf)
			for j, v := range row {
				if want := e.Score(i, j); math.Float64bits(v) != math.Float64bits(want) {
					t.Fatalf("d=%d: ScoreRow(%d)[%d] = %v, Score = %v", d, i, j, v, want)
				}
			}
		}
	}
}

func TestTopKEmbeddingMatchesDenseTopK(t *testing.T) {
	// One fused scan serves every width; from d=1 up it must agree with
	// dense selection bitwise.
	for _, d := range []int{1, 2, 4, 8, 16} {
		for trial := int64(0); trial < 5; trial++ {
			checkMatchesDenseTopK(t, fmt.Sprintf("d=%d trial %d", d, trial), testEmbedding(40, 55, d, 100+trial), 7)
		}
	}
}

// TestTopKEmbeddingAllocFree pins the regression this pipeline exists to
// avoid: candidate generation must not allocate per query (it used to spend
// ~325k allocs at n=2048; the budget below is two orders looser than the
// handful the scan needs, and three orders tighter than the regression).
func TestTopKEmbeddingAllocFree(t *testing.T) {
	for _, d := range []int{4, 8} {
		e := testEmbedding(300, 300, d, 55)
		allocs := testing.AllocsPerRun(5, func() {
			TopK(e, 16, 1)
		})
		if allocs > 64 {
			t.Errorf("d=%d: TopK allocated %v times/op, want <= 64", d, allocs)
		}
	}
}

// nearestTied is the reference for the embedding scan's tie contract: row
// i's target columns sorted by (squared distance asc, column asc), cut to k.
func nearestTied(e *Embedding, i, k int) []int {
	dist := make([]float64, e.Dst.Rows)
	matrix.SqDistInto(dist, e.Src.Row(i), e.Dst)
	cols := make([]int, len(dist))
	for j := range cols {
		cols[j] = j
	}
	sort.SliceStable(cols, func(a, b int) bool { return dist[cols[a]] < dist[cols[b]] })
	return cols[:k]
}

// pointsAt returns m copies of def with the listed rows overridden.
func pointsAt(m int, def []float64, at map[int][]float64) [][]float64 {
	pts := make([][]float64, m)
	for j := range pts {
		pts[j] = def
		if p, ok := at[j]; ok {
			pts[j] = p
		}
	}
	return pts
}

func TestTopKEmbeddingTiesPreferLowerColumn(t *testing.T) {
	// Duplicate target points force exact distance ties; the contract is
	// ascending column id among ties, matching dense selection. The scan
	// takes targets in blocks of eight and then a tail, so ties are placed
	// in the tail, inside one block and across a block boundary; a tie that
	// reaches the k-th bound must not evict an incumbent.
	origin := [][]float64{{0, 0}}
	near, mid, far := []float64{1, 0}, []float64{2, 0}, []float64{3, 0}
	type tieCase struct {
		name     string
		src, dst [][]float64
		k        int
		want     []int // row 0's columns; nil checks the reference only
	}
	cases := []tieCase{
		{"tail only (m=4)", origin, [][]float64{near, near, {0, 0}, near}, 3, []int{2, 0, 1}},
		{"inside one block", origin, pointsAt(8, mid, map[int][]float64{
			1: near, 2: near, 3: {0, 1}, 4: far, 5: near, 6: {0, -1}}), 4, []int{1, 2, 3, 5}},
		{"across a block boundary", origin, pointsAt(16, mid, map[int][]float64{
			0: far, 5: near, 7: near, 8: near, 10: near}), 6, []int{5, 7, 8, 10, 1, 2}},
		{"in the tail (m=19)", origin, pointsAt(19, mid, map[int][]float64{
			0: far, 3: {0, 1}, 16: near, 17: {0, -1}, 18: near}), 5, []int{3, 16, 17, 18, 1}},
	}
	// Runs of exact duplicates far longer than a block, drawn from four
	// locations with shuffled ids so ascending-id output cannot fall out of
	// insertion order by accident; the queries sit on, between and beside
	// the locations.
	rng := rand.New(rand.NewSource(7))
	locs := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	const dup = 96
	dups := make([][]float64, dup)
	for i, o := range rng.Perm(dup) {
		dups[o] = locs[i%len(locs)]
	}
	queries := append([][]float64{{0.5, 0.5}, {0, 0.5}, {-1, 2}}, locs...)
	for _, k := range []int{1, 3, 24, 29, dup} {
		cases = append(cases, tieCase{fmt.Sprintf("duplicate coordinates k=%d", k), queries, dups, k, nil})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := &Embedding{Src: matrix.DenseFromRows(tc.src), Dst: matrix.DenseFromRows(tc.dst),
				SimFromDist2: func(d2 float64) float64 { return -d2 }}
			c := TopK(e, tc.k, 1)
			if cols, _ := c.Row(0); tc.want != nil && !reflect.DeepEqual(cols, tc.want) {
				t.Fatalf("tie order: got %v, want %v", cols, tc.want)
			}
			for i := range tc.src {
				if cols, _ := c.Row(i); !reflect.DeepEqual(cols, nearestTied(e, i, tc.k)) {
					t.Fatalf("query %d: got %v, want %v", i, cols, nearestTied(e, i, tc.k))
				}
			}
			checkMatchesDenseTopK(t, tc.name, e, tc.k)
		})
	}
}

func TestTopKEmbeddingParallelIdentical(t *testing.T) {
	checkParallelIdentical(t, testEmbedding(600, 600, 3, 77), 8, 4)
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

// TestTopKNaNDistances is the regression for a panic in the fused scan's
// former selector: once the selection array was full, a NaN distance passed
// the !(s >= bound) filter and the insert indexed past k. NaN target rows (NaN distance in every
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
			c := TopK(e, k, workers)
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
		c := TopK(f, k, workers)
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

package assign

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"graphalign/internal/matrix"
)

func randEmbedding(n, m, d int, rng *rand.Rand) *Embedding {
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

// perturbRows rewrites a few random rows of m and returns their indices.
func perturbRows(m *matrix.Dense, count int, rng *rand.Rand) []int {
	seen := map[int]bool{}
	for len(seen) < count {
		seen[rng.Intn(m.Rows)] = true
	}
	var rows []int
	for i := range seen {
		for t := 0; t < m.Cols; t++ {
			m.Set(i, t, rng.NormFloat64())
		}
		rows = append(rows, i)
	}
	return rows
}

// candsEqual fails unless a and b are bitwise the same candidate set.
func candsEqual(t *testing.T, tag string, a, b *Candidates) {
	t.Helper()
	if a.Rows != b.Rows || a.Cols != b.Cols || a.K != b.K {
		t.Fatalf("%s: shape differs: %dx%d k=%d vs %dx%d k=%d", tag, a.Rows, a.Cols, a.K, b.Rows, b.Cols, b.K)
	}
	if !reflect.DeepEqual(a.Col, b.Col) || !sameBits(a.Val, b.Val) || !reflect.DeepEqual(a.Len, b.Len) {
		for i := 0; i < a.Rows; i++ {
			ac, av := a.Row(i)
			bc, bv := b.Row(i)
			if !reflect.DeepEqual(ac, bc) || !sameBits(av, bv) {
				t.Fatalf("%s: row %d differs:\n  got  %v %v\n  want %v %v", tag, i, ac, av, bc, bv)
			}
		}
		t.Fatalf("%s: candidate sets differ outside live rows (padding/Len)", tag)
	}
}

// checkUpdateMatchesBulk: the exact update of TopK(s, k) to the edited
// scorer s2 is bitwise a bulk TopK(s2, k) — including rows that shrink or
// grow through NaN pruning.
func checkUpdateMatchesBulk(t *testing.T, tag string, s, s2 Scorer, k int, changedRows, changedCols []int) {
	t.Helper()
	prev := TopK(s, k, 1)
	bulk := TopK(s2, k, 1)
	upd, _ := UpdateTopK(prev, s2, changedRows, changedCols, k, 1)
	candsEqual(t, tag, upd, bulk)
}

// editEmbedding returns a copy of e with a few source rows and target rows
// moved (up to maxRows and maxCols of each), and the moved indices.
func editEmbedding(e *Embedding, maxRows, maxCols int, rng *rand.Rand) (*Embedding, []int, []int) {
	e2 := &Embedding{Src: e.Src.Clone(), Dst: e.Dst.Clone(), SimFromDist2: e.SimFromDist2}
	changedRows := perturbRows(e2.Src, 1+rng.Intn(maxRows), rng)
	changedCols := perturbRows(e2.Dst, 1+rng.Intn(maxCols), rng)
	return e2, changedRows, changedCols
}

// editFactors returns a copy of f with a few Us and Vs entries redrawn, and
// the source rows and target columns they belong to.
func editFactors(f *FactorEmbedding, rng *rand.Rand) (*FactorEmbedding, []int, []int) {
	f2 := f.Clone()
	n, m := f.Shape()
	var changedRows, changedCols []int
	for c := 0; c <= rng.Intn(2); c++ {
		i := rng.Intn(n)
		f2.Us[rng.Intn(f.Rank())][i] = rng.NormFloat64()
		changedRows = append(changedRows, i)
	}
	for c := 0; c <= rng.Intn(3); c++ {
		j := rng.Intn(m)
		f2.Vs[rng.Intn(f.Rank())][j] = rng.NormFloat64()
		changedCols = append(changedCols, j)
	}
	return f2, changedRows, changedCols
}

// The embedding update runs the one k-NN scan at narrow and wide widths.
func TestUpdateTopKEmbeddingMatchesBulk(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, d := range []int{4, 8, 16} {
		for trial := 0; trial < 10; trial++ {
			n, m := 40+rng.Intn(20), 50+rng.Intn(20)
			e := randEmbedding(n, m, d, rng)
			e2, changedRows, changedCols := editEmbedding(e, 3, 3, rng)
			checkUpdateMatchesBulk(t, fmt.Sprintf("d=%d trial %d", d, trial), e, e2, 5, changedRows, changedCols)
		}
	}
}

func TestUpdateTopKEmbeddingNoChange(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	e := randEmbedding(30, 40, 8, rng)
	prev := TopK(e, 4, 1)
	upd, _ := UpdateTopK(prev, e, nil, nil, 4, 1)
	candsEqual(t, "embedding-nochange", upd, prev)
	// The update returns a private copy, never an alias of prev's storage.
	if &upd.Col[0] == &prev.Col[0] {
		t.Fatal("update aliases previous candidate storage")
	}
}

func randFactors(n, m, rank int, rng *rand.Rand) *FactorEmbedding {
	f := &FactorEmbedding{Us: make([][]float64, rank), Vs: make([][]float64, rank), Weights: make([]float64, rank)}
	for t := 0; t < rank; t++ {
		f.Us[t] = make([]float64, n)
		f.Vs[t] = make([]float64, m)
		for i := range f.Us[t] {
			f.Us[t][i] = rng.NormFloat64()
		}
		for j := range f.Vs[t] {
			f.Vs[t][j] = rng.NormFloat64()
		}
		f.Weights[t] = rng.Float64()
	}
	return f
}

func TestUpdateTopKFactorMatchesBulk(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 15; trial++ {
		f := randFactors(30+rng.Intn(20), 40+rng.Intn(20), 3, rng)
		f2, changedRows, changedCols := editFactors(f, rng)
		checkUpdateMatchesBulk(t, fmt.Sprintf("trial %d", trial), f, f2, 5, changedRows, changedCols)
	}
}

// Large deltas take the bulk-rebuild shortcut; the result must still match.
func TestUpdateTopKFactorLargeDeltaShortcut(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n, m, rank, k := 20, 25, 2, 4
	f := randFactors(n, m, rank, rng)
	f2 := f.Clone()
	var changedCols []int
	for j := 0; j < m; j++ {
		f2.Vs[0][j] = rng.NormFloat64()
		changedCols = append(changedCols, j)
	}
	checkUpdateMatchesBulk(t, "factor-shortcut", f, f2, k, nil, changedCols)
}

// checkReserve checks the reserve invariant UpdateTopK maintains over s: each
// row's entries carry their exact current scores in strictly ascending rank
// (TopK's order), every column outside the list ranks after its last entry,
// and a row shorter than k holds every ranked column.
func checkReserve(t *testing.T, tag string, c *Candidates, s Scorer, k int) {
	t.Helper()
	e, byDist := s.(*Embedding)
	key := func(i, j int) rankEntry {
		if byDist {
			d2 := matrix.SqDist(e.Src.Row(i), e.Dst.Row(j))
			return rankEntry{d2: d2, v: e.SimFromDist2(d2), j: j}
		}
		return rankEntry{v: s.Score(i, j), j: j}
	}
	for i := 0; i < c.Rows; i++ {
		cols, vals := c.Row(i)
		in := make([]bool, c.Cols)
		for idx, j := range cols {
			in[j] = true
			x := key(i, j)
			if math.Float64bits(vals[idx]) != math.Float64bits(x.v) {
				t.Fatalf("%s: row %d col %d stores %v, exact %v", tag, i, j, vals[idx], x.v)
			}
			if idx > 0 && !x.after(key(i, cols[idx-1]), byDist) {
				t.Fatalf("%s: row %d out of rank order at %d: %v", tag, i, idx, cols)
			}
		}
		for j := 0; j < c.Cols; j++ {
			x := key(i, j)
			if in[j] || (!byDist && x.v != x.v) {
				continue
			}
			if len(cols) < k {
				t.Fatalf("%s: row %d holds %d < k=%d entries but misses ranked col %d", tag, i, len(cols), k, j)
			}
			if len(cols) > 0 && !x.after(key(i, cols[len(cols)-1]), byDist) {
				t.Fatalf("%s: row %d: outside col %d ranks before the last entry %d", tag, i, j, cols[len(cols)-1])
			}
		}
	}
}

// checkReserveChain maintains a depth-r reserve over steps edits of s
// without a rebuild. After every update the head must be bitwise TopK(s, k),
// the reserve invariant must hold, and four workers must reproduce one.
func checkReserveChain(t *testing.T, tag string, s Scorer, k, r, steps int, edit func(Scorer) (Scorer, []int, []int)) {
	t.Helper()
	res := TopK(s, r, 1)
	for step := 0; step < steps; step++ {
		s2, rows, cols := edit(s)
		at := fmt.Sprintf("%s r=%d step %d", tag, r, step)
		next, rescanned := UpdateTopK(res, s2, rows, cols, k, 1)
		candsEqual(t, at, next.Head(k), TopK(s2, k, 1))
		if rescanned < 0 || rescanned > next.Rows {
			t.Fatalf("%s: rescanned %d rows of %d", at, rescanned, next.Rows)
		}
		checkReserve(t, at, next, s2, k)
		par, parRescanned := UpdateTopK(res, s2, rows, cols, k, 4)
		candsEqual(t, at+" workers=4", par, next)
		if parRescanned != rescanned {
			t.Fatalf("%s: workers=4 rescans differ", at)
		}
		res, s = next, s2
	}
}

// lineEmbedding places source rows and target rows on a line (d=1), so a
// test can say exactly which target ranks where for each source row.
func lineEmbedding(src, dst []float64) *Embedding {
	return &Embedding{Src: matrix.DenseFromRows(columnOf(src)), Dst: matrix.DenseFromRows(columnOf(dst)),
		SimFromDist2: func(d2 float64) float64 { return -d2 }}
}

func columnOf(xs []float64) [][]float64 {
	rows := make([][]float64, len(xs))
	for i, x := range xs {
		rows[i] = []float64{x}
	}
	return rows
}

// checkLineUpdate moves the listed targets of lineEmbedding(src, dst) to
// the given positions, updates a depth-r reserve and checks the head
// against TopK bitwise, the reserve invariant and the number of rescans.
func checkLineUpdate(t *testing.T, tag string, src, dst []float64, moves map[int]float64, k, r, wantRescans int) {
	t.Helper()
	e := lineEmbedding(src, dst)
	moved := append([]float64(nil), dst...)
	var cols []int
	for j, x := range moves {
		moved[j] = x
		cols = append(cols, j)
	}
	e2 := lineEmbedding(src, moved)
	next, rescans := UpdateTopK(TopK(e, r, 1), e2, nil, cols, k, 1)
	candsEqual(t, tag, next.Head(k), TopK(e2, k, 1))
	checkReserve(t, tag, next, e2, k)
	if rescans != wantRescans {
		t.Fatalf("%s: %d rows rescanned, want %d", tag, rescans, wantRescans)
	}
}

// When a row's last entry moved, its distance is unknown, so the bound
// falls back to the last entry whose column did not move: row 0 holds
// targets 0–3 and target 3 moves. Moved to 2.5 it ranks before the bound
// (target 2) and stays; moved to 7 it ranks after it and leaves, the row
// keeping three entries, still at least k. Neither case rescans.
func TestUpdateTopKBoundFallsBackToLastUnmoved(t *testing.T) {
	src := []float64{0, 100}
	dst := []float64{1, 2, 3, 4, 5, 6, 10, 11}
	checkLineUpdate(t, "moves in", src, dst, map[int]float64{3: 2.5}, 2, 4, 0)
	checkLineUpdate(t, "moves out", src, dst, map[int]float64{3: 7}, 2, 4, 0)
}

// A row whose every entry moved has no entry left to bound the moved
// columns with, so it is rescanned; row 1, whose entries stayed, admits the
// moved targets that now rank before its last entry without a rescan.
func TestUpdateTopKEveryEntryMovedRescans(t *testing.T) {
	src := []float64{0, 100}
	dst := []float64{1, 2, 3, 4, 5, 6, 10, 11}
	checkLineUpdate(t, "all moved", src, dst, map[int]float64{0: 50, 1: 51, 2: 52, 3: 53}, 2, 4, 1)
}

// nanRows overwrites one coordinate of about a third of the given rows
// with NaN.
func nanRows(m *matrix.Dense, rows []int, rng *rand.Rand) {
	for _, i := range rows {
		if rng.Intn(3) == 0 {
			m.Row(i)[rng.Intn(m.Cols)] = math.NaN()
		}
	}
}

// The reserve update's head is bitwise TopK over chains of embedding edits —
// row-only, column-only and mixed deltas, NaN rows, a step kernel whose equal
// values hide distinct distances — at reserve depths K, 2K and 3K.
func TestUpdateTopKReserveEmbeddingChains(t *testing.T) {
	const k = 5
	kernels := map[string]func(float64) float64{
		"neg":  func(d2 float64) float64 { return -d2 },
		"step": func(d2 float64) float64 { return -math.Floor(d2 / 4) },
	}
	for _, name := range []string{"neg", "step"} {
		for _, d := range []int{3, 8, 17} {
			for _, r := range []int{k, 2 * k, 3 * k} {
				rng := rand.New(rand.NewSource(int64(100*d + r)))
				e := randEmbedding(40+rng.Intn(20), 50+rng.Intn(20), d, rng)
				e.SimFromDist2 = kernels[name]
				edit := func(s Scorer) (Scorer, []int, []int) {
					cur := s.(*Embedding)
					next := cur.Clone()
					var rows, cols []int
					switch rng.Intn(3) {
					case 0:
						rows = perturbRows(next.Src, 1+rng.Intn(3), rng)
					case 1:
						cols = perturbRows(next.Dst, 1+rng.Intn(20), rng)
					default:
						rows = perturbRows(next.Src, 1+rng.Intn(3), rng)
						cols = perturbRows(next.Dst, 1+rng.Intn(20), rng)
					}
					nanRows(next.Src, rows, rng)
					nanRows(next.Dst, cols, rng)
					return next, rows, cols
				}
				checkReserveChain(t, fmt.Sprintf("%s d=%d", name, d), e, k, r, 20, edit)
			}
		}
	}
}

// The same over factor scorers, where NaN scores are pruned: term 0 carries
// a NaN on most target columns, so every row whose source coefficient for it
// is non-zero holds only the few remaining columns — short rows that must
// stay exact as edits flip columns and coefficients between NaN, zero and
// numbers (with duplicate indices in the change lists).
func TestUpdateTopKReserveFactorChains(t *testing.T) {
	const k = 5
	for _, r := range []int{k, 2 * k, 3 * k} {
		rng := rand.New(rand.NewSource(int64(r)))
		n, m := 40, 50
		f := randFactors(n, m, 3, rng)
		for j := 0; j < m; j++ {
			if rng.Intn(10) != 0 {
				f.Vs[0][j] = math.NaN()
			}
		}
		for i := 0; i < n; i += 3 {
			f.Us[0][i] = 0
		}
		edit := func(s Scorer) (Scorer, []int, []int) {
			next := s.(*FactorEmbedding).Clone()
			var rows, cols []int
			for c := rng.Intn(3); c > 0; c-- {
				i := rng.Intn(n)
				next.Us[rng.Intn(3)][i] = []float64{0, rng.NormFloat64()}[rng.Intn(2)]
				rows = append(rows, i, i)
			}
			for c := rng.Intn(12); c >= 0; c-- {
				j := rng.Intn(m)
				next.Vs[0][j] = []float64{math.NaN(), rng.NormFloat64()}[rng.Intn(2)]
				next.Vs[1+rng.Intn(2)][j] = rng.NormFloat64()
				cols = append(cols, j)
			}
			return next, rows, cols
		}
		checkReserveChain(t, "factor", f, k, r, 20, edit)
	}
}

// At a size past candidateBudget the merge pass fans rows out across the
// pool; the result must not depend on the worker count.
func TestUpdateTopKReserveParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	e := randEmbedding(600, 600, 8, rng)
	e2 := e.Clone()
	cols := perturbRows(e2.Dst, 450, rng)
	prev := TopK(e, 20, 1)
	seq, seqRescans := UpdateTopK(prev, e2, nil, cols, 10, 1)
	par, parRescans := UpdateTopK(prev, e2, nil, cols, 10, 4)
	candsEqual(t, "parallel", par, seq)
	if parRescans != seqRescans {
		t.Fatal("workers=4 rescans differ from workers=1")
	}
	candsEqual(t, "parallel head", seq.Head(10), TopK(e2, 10, 1))
}

// candRows builds a candidate set of stride k from per-row (col, val)
// entries, padding short rows with Col -1 / Val 0 and setting Len as TopK
// and Augment do.
func candRows(k int, rows [][][2]float64) *Candidates {
	c := &Candidates{Rows: len(rows), Cols: 8, K: k, Col: make([]int, len(rows)*k), Val: make([]float64, len(rows)*k)}
	for i, row := range rows {
		cols, vals := c.slots(i)
		for idx := range cols {
			cols[idx], vals[idx] = -1, 0
			if idx < len(row) {
				cols[idx], vals[idx] = int(row[idx][0]), row[idx][1]
			}
		}
	}
	c.syncLen()
	return c
}

// DiffRows compares live entries, so a head of stride K and an augmented
// set of stride K+1 with Len differ exactly in the rows whose repair entry
// appeared, went, moved or was rescored; values compare bitwise.
func TestDiffRowsMixedWidths(t *testing.T) {
	nan := math.NaN()
	head := [][][2]float64{{{1, 0.9}, {2, 0.5}}, {{3, 0.8}, {4, 0.7}}, {{5, nan}}}
	repaired := [][][2]float64{{{1, 0.9}, {2, 0.5}}, {{3, 0.8}, {4, 0.7}, {6, 0.1}}, {{5, nan}}}
	for _, tc := range []struct {
		name string
		a, b *Candidates
		want []int
	}{
		{"same lists, stride K and K+1", candRows(2, head), candRows(3, head), nil},
		{"row gains a repair entry", candRows(2, head), candRows(3, repaired), []int{1}},
		{"row loses its repair entry", candRows(3, repaired), candRows(2, head), []int{1}},
		{"repair entry rescored", candRows(3, repaired), candRows(3, [][][2]float64{head[0], {{3, 0.8}, {4, 0.7}, {6, 0.2}}, head[2]}), []int{1}},
		{"repair entry moves column", candRows(3, repaired), candRows(3, [][][2]float64{head[0], {{3, 0.8}, {4, 0.7}, {7, 0.1}}, head[2]}), []int{1}},
		{"unchanged NaN value", candRows(2, head), candRows(2, head), nil},
		{"NaN value turns number", candRows(2, head), candRows(2, [][][2]float64{head[0], head[1], {{5, 0.3}}}), []int{2}},
	} {
		if got := DiffRows(tc.a, tc.b); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: DiffRows = %v, want %v", tc.name, got, tc.want)
		}
	}
}

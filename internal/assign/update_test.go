package assign

import (
	"fmt"
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

func candsEqual(t *testing.T, tag string, a, b *Candidates) {
	t.Helper()
	if a.Rows != b.Rows || a.Cols != b.Cols || a.K != b.K {
		t.Fatalf("%s: shape differs: %dx%d k=%d vs %dx%d k=%d", tag, a.Rows, a.Cols, a.K, b.Rows, b.Cols, b.K)
	}
	if !reflect.DeepEqual(a.Col, b.Col) || !reflect.DeepEqual(a.Val, b.Val) || !reflect.DeepEqual(a.Len, b.Len) {
		for i := 0; i < a.Rows; i++ {
			ac, av := a.Row(i)
			bc, bv := b.Row(i)
			if !reflect.DeepEqual(ac, bc) || !reflect.DeepEqual(av, bv) {
				t.Fatalf("%s: row %d differs:\n  got  %v %v\n  want %v %v", tag, i, ac, av, bc, bv)
			}
		}
		t.Fatalf("%s: candidate sets differ outside live rows (padding/Len)", tag)
	}
}

// checkUpdateMatchesBulk: the exact update of TopK(s, k) to the edited
// scorer s2 is bitwise a bulk TopK(s2, k) — including rows that shrink or
// grow through NaN pruning — and its dirty set is exactly the rows whose
// lists changed.
func checkUpdateMatchesBulk(t *testing.T, tag string, s, s2 Scorer, k int, changedRows, changedCols []int) {
	t.Helper()
	prev := TopK(s, k, 1)
	bulk := TopK(s2, k, 1)
	upd, dirty := UpdateTopK(prev, s2, changedRows, changedCols, 1)
	candsEqual(t, tag, upd, bulk)
	if want := DiffRows(prev, bulk); !reflect.DeepEqual(dirty, want) {
		t.Fatalf("%s: dirty = %v, want %v", tag, dirty, want)
	}
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
	upd, dirty := UpdateTopK(prev, e, nil, nil, 1)
	candsEqual(t, "embedding-nochange", upd, prev)
	if len(dirty) != 0 {
		t.Fatalf("no-op update reported dirty rows %v", dirty)
	}
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

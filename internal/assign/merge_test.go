package assign

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// checkMergeInvariants merges TopK(s, k) to the edited scorer s2 and checks
// the merge contract: stored values are the exact current scores, rows are
// in candidate storage order, fully rescanned rows match the bulk rebuild
// bitwise, and every bulk entry drawn from the merge's pool (previous entries
// plus moved columns) survives.
func checkMergeInvariants(t *testing.T, tag string, s, s2 Scorer, k int, changedRows, changedCols []int) {
	t.Helper()
	prev := TopK(s, k, 1)
	bulk := TopK(s2, k, 1)
	merged, _ := MergeTopK(prev, s2, changedRows, changedCols, 1)
	rescan := make([]bool, merged.Rows)
	for _, i := range changedRows {
		rescan[i] = true
	}
	changed := make([]bool, merged.Cols)
	for _, j := range changedCols {
		changed[j] = true
	}
	for i := 0; i < merged.Rows; i++ {
		cols, vals := merged.Row(i)
		bc, bv := bulk.Row(i)
		if rescan[i] {
			if !reflect.DeepEqual(cols, bc) || !reflect.DeepEqual(vals, bv) {
				t.Fatalf("%s: rescanned row %d differs from bulk:\n  got  %v %v\n  want %v %v", tag, i, cols, vals, bc, bv)
			}
			continue
		}
		for idx, j := range cols {
			if want := s2.Score(i, j); vals[idx] != want {
				t.Fatalf("%s: row %d entry %d (col %d): stored %v, exact %v", tag, i, idx, j, vals[idx], want)
			}
			if idx > 0 && (vals[idx-1] < vals[idx] || (vals[idx-1] == vals[idx] && cols[idx-1] > cols[idx])) {
				t.Fatalf("%s: row %d out of order at %d: %v %v", tag, i, idx, cols, vals)
			}
		}
		// Pool membership: a bulk winner that is a previous entry or a moved
		// column is in the merge's selection pool, and the pool is a subset of
		// all columns, so the merged k-th bound cannot exceed the bulk one —
		// such a winner must survive the merge.
		pool := map[int]bool{}
		pc, _ := prev.Row(i)
		for _, j := range pc {
			pool[j] = true
		}
		kept := map[int]bool{}
		for _, j := range cols {
			kept[j] = true
		}
		for _, j := range bc {
			if (pool[j] || changed[j]) && !kept[j] {
				t.Fatalf("%s: row %d dropped in-pool bulk winner col %d:\n  merged %v\n  bulk   %v", tag, i, j, cols, bc)
			}
		}
	}
}

func TestMergeTopKEmbeddingInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, d := range []int{4, 8, 16} {
		for trial := 0; trial < 10; trial++ {
			e := randEmbedding(40+rng.Intn(20), 50+rng.Intn(20), d, rng)
			e2, changedRows, changedCols := editEmbedding(e, 3, 4, rng)
			checkMergeInvariants(t, fmt.Sprintf("d=%d trial %d", d, trial), e, e2, 5, changedRows, changedCols)
		}
	}
}

// When every column is in the selection pool (K >= Cols means every row lists
// every column) the merge has nothing to miss: it must match the bulk rebuild
// bitwise.
func TestMergeTopKEmbeddingFullPoolExact(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	n, m, k := 40, 12, 12
	e := randEmbedding(n, m, 6, rng)
	prev := TopK(e, k, 1)
	e2 := &Embedding{Src: e.Src.Clone(), Dst: e.Dst.Clone(), SimFromDist2: e.SimFromDist2}
	changedCols := perturbRows(e2.Dst, 3, rng)

	bulk := TopK(e2, k, 1)
	merged, _ := MergeTopK(prev, e2, nil, changedCols, 1)
	candsEqual(t, "embedding-merge-full", merged, bulk)
}

func TestMergeTopKEmbeddingNoChange(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	e := randEmbedding(30, 40, 8, rng)
	prev := TopK(e, 4, 1)
	merged, _ := MergeTopK(prev, e, nil, nil, 1)
	candsEqual(t, "embedding-merge-nochange", merged, prev)
	if &merged.Col[0] == &prev.Col[0] {
		t.Fatal("merge aliases previous candidate storage")
	}
}

// Deltas past the worthwhile bound fall back to the bulk rebuild, so the
// result is exact.
func TestMergeTopKEmbeddingLargeDeltaShortcut(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	n, m, k := 30, 24, 4
	e := randEmbedding(n, m, 8, rng)
	prev := TopK(e, k, 1)
	e2 := &Embedding{Src: e.Src.Clone(), Dst: e.Dst.Clone(), SimFromDist2: e.SimFromDist2}
	changedCols := perturbRows(e2.Dst, m/2, rng)

	bulk := TopK(e2, k, 1)
	merged, _ := MergeTopK(prev, e2, nil, changedCols, 1)
	candsEqual(t, "embedding-merge-shortcut", merged, bulk)
}

func TestMergeTopKFactorInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 15; trial++ {
		f := randFactors(30+rng.Intn(20), 40+rng.Intn(20), 3, rng)
		f2, changedRows, changedCols := editFactors(f, rng)
		checkMergeInvariants(t, fmt.Sprintf("trial %d", trial), f, f2, 5, changedRows, changedCols)
	}
}

// A moved column whose fresh scores are NaN must disappear from every merged
// row (NaN pruning), shrinking rows through the Len bookkeeping rather than
// keeping a poisoned entry.
func TestMergeTopKFactorNaNPruning(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	n, m, rank, k := 30, 40, 2, 5
	f := randFactors(n, m, rank, rng)
	prev := TopK(f, k, 1)

	f2 := f.Clone()
	poisoned := 7
	for r := 0; r < rank; r++ {
		f2.Vs[r][poisoned] = math.NaN()
	}
	merged, _ := MergeTopK(prev, f2, nil, []int{poisoned}, 1)
	for i := 0; i < n; i++ {
		cols, vals := merged.Row(i)
		for idx, j := range cols {
			if j == poisoned {
				t.Fatalf("row %d retained NaN-scored col %d", i, poisoned)
			}
			if math.IsNaN(vals[idx]) {
				t.Fatalf("row %d entry %d is NaN", i, idx)
			}
		}
	}
}

// A column listed twice among the changed columns is one moved column: no
// row may hold it twice, and the result equals the merge over the list
// without the repeat.
func TestMergeTopKRepeatedColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := randFactors(30, 40, 3, rng)
	f2 := f.Clone()
	const j = 7
	for r := range f2.Vs {
		f2.Vs[r][j] = 10
	}
	prev := TopK(f, 5, 1)
	merged, _ := MergeTopK(prev, f2, []int{4, 4}, []int{j, j}, 1)
	for i := 0; i < merged.Rows; i++ {
		cols, _ := merged.Row(i)
		seen := map[int]bool{}
		for _, c := range cols {
			if seen[c] {
				t.Fatalf("row %d holds column %d twice: %v", i, c, cols)
			}
			seen[c] = true
		}
	}
	once, _ := MergeTopK(prev, f2, []int{4}, []int{j}, 1)
	candsEqual(t, "repeat", merged, once)
}

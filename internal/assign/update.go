package assign

import (
	"slices"

	"graphalign/internal/parallel"
)

// Clone returns a deep copy of the candidate set, so incremental updates can
// produce a new version without mutating the previous one (candidate sets are
// immutable once published).
func (c *Candidates) Clone() *Candidates {
	out := &Candidates{Rows: c.Rows, Cols: c.Cols, K: c.K,
		Col: append([]int(nil), c.Col...),
		Val: append([]float64(nil), c.Val...)}
	if c.Len != nil {
		out.Len = append([]int(nil), c.Len...)
	}
	return out
}

// DiffRows returns the rows whose candidate lists differ between two
// candidate sets of identical shape, in ascending order — the dirty set a
// warm-started auction re-bids.
func DiffRows(a, b *Candidates) []int {
	var dirty []int
	for i := 0; i < a.Rows; i++ {
		if rowDiffers(a, b, i) {
			dirty = append(dirty, i)
		}
	}
	return dirty
}

// rowDiffers reports whether row i's candidate list differs between a and b.
func rowDiffers(a, b *Candidates, i int) bool {
	ac, av := a.Row(i)
	bc, bv := b.Row(i)
	return !slices.Equal(ac, bc) || !slices.Equal(av, bv)
}

// updateWorthwhile reports whether a per-row incremental update can beat a
// full recompute: once a quarter of either side is dirty, the probe pass plus
// scattered rescans costs as much as the straight-line bulk kernels.
func updateWorthwhile(changedRows, n, changedCols, m int) bool {
	return 4*changedRows < n && 4*changedCols < m
}

// UpdateTopK incrementally rebuilds the candidate set after a similarity
// delta: s is the new similarity, prev the candidate set TopK built over the
// old one, changedRows the source rows and changedCols the target columns
// whose inputs changed (every other score must be bitwise-unchanged; a
// factor-weight change means every row changed). Rows are rescanned only
// when the delta can affect them — the row itself changed, a current
// candidate's column changed, the row is short (NaN pruning left spare
// capacity), or a changed column's new score reaches the row's k-th bound
// (probed with Score, bitwise the bulk kernels' value, so the conservative
// comparison never misses an entrant). Rescans run TopK's row kernels, so
// the result equals TopK(s, prev.K, ·) bitwise; when the delta is too large
// for per-row work to win (see updateWorthwhile) it simply runs the bulk
// rebuild.
//
// Returns the new candidate set and the rows whose candidate lists actually
// changed, ascending — the warm-started auction's dirty set. prev is not
// mutated.
func UpdateTopK(prev *Candidates, s Scorer, changedRows, changedCols []int, workers int) (*Candidates, []int) {
	n, m := prev.Rows, prev.Cols
	if !updateWorthwhile(len(changedRows), n, len(changedCols), m) {
		next := TopK(s, prev.K, workers)
		return next, DiffRows(prev, next)
	}
	rescan := make([]bool, n)
	for _, i := range changedRows {
		rescan[i] = true
	}
	if len(changedCols) > 0 {
		changed := make([]bool, m)
		for _, j := range changedCols {
			changed[j] = true
		}
		probeRows := func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if rescan[i] {
					continue
				}
				cols, vals := prev.Row(i)
				need := len(vals) < prev.K
				if !need {
					for _, j := range cols {
						if changed[j] {
							need = true
							break
						}
					}
				}
				if !need {
					worst := vals[len(vals)-1]
					for _, j := range changedCols {
						// Not strictly below the kept worst: the changed column
						// could enter (ties resolve by column id, so equality
						// must rescan too).
						if !(s.Score(i, j) < worst) {
							need = true
							break
						}
					}
				}
				rescan[i] = need
			}
		}
		if n*len(changedCols) >= candidateBudget && parallel.Workers(workers) > 1 {
			parallel.Blocks(workers, n, probeRows)
		} else {
			probeRows(0, n)
		}
	}
	list := make([]int, 0, len(changedRows))
	for i, r := range rescan {
		if r {
			list = append(list, i)
		}
	}
	next := prev.Clone()
	if len(list) > 0 {
		selectRows(s, next, list, workers)
		next.syncLen()
	}
	return next, dirtyAmong(prev, next, list)
}

// dirtyAmong filters the rescanned rows down to those whose candidate lists
// actually changed (a rescan frequently reproduces the old list, and every
// row dropped here is a row the warm auction never re-bids).
func dirtyAmong(prev, next *Candidates, rescanned []int) []int {
	var dirty []int
	for _, i := range rescanned {
		if rowDiffers(prev, next, i) {
			dirty = append(dirty, i)
		}
	}
	return dirty
}

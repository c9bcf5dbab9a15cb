package assign

import "graphalign/internal/parallel"

// This file holds the merge variant of the incremental candidate update.
// UpdateTopK is bitwise-exact against a full rebuild, which forces it to
// fully rescan every row a moved target could have entered — O(Cols · d)
// per affected row, and the affected fraction
// grows like K · changedCols / Cols, so a few hundred moved targets already
// drag in most rows. The merge variant instead rebuilds each row's list
// from what is already known exactly: surviving old entries keep their
// stored scores (their targets did not move), moved targets are rescored
// fresh, and the row's new top-k is selected from that union — O(changedCols
// · d) per row, independent of Cols.
//
// The price is bounded staleness of membership, never of scores: every
// stored value is the exact current score of its column, but when a moved
// target drops out of a row's list the vacated slot is filled from the known
// entries rather than a full rescan, so an unmoved column scoring between
// the row's old and new k-th bound can be missed until the row's own
// inputs move (which forces a true rescan). Whenever a row's new k-th
// bound is at least its old bound — the common case, a moved target entering
// — the merged list equals the exact rebuild. The incremental session uses
// this variant only when the caller already opted into tolerance-based
// staleness (Options.ColTolerance > 0); exact mode keeps UpdateTopK.

// mergeWorthwhile reports whether the per-row merge can beat a bulk rebuild:
// each row pays O(changedCols) rescores, so the merge loses once the moved
// targets approach half the columns, and rescanned rows pay full rows as in
// the exact update.
func mergeWorthwhile(changedRows, n, changedCols, m int) bool {
	return 4*changedRows < n && 2*changedCols < m
}

// simPair is a merged-candidate entry: column j at similarity v.
type simPair struct {
	v float64
	j int
}

// simInsert inserts (v, j) into the bounded selection array kept in
// (v descending, j ascending) order — the candidate-row storage order — and
// returns it. Entries past capacity k fall off the tail.
func simInsert(arr []simPair, k int, v float64, j int) []simPair {
	pos := len(arr)
	for pos > 0 && (arr[pos-1].v < v || (arr[pos-1].v == v && arr[pos-1].j > j)) {
		pos--
	}
	if len(arr) < k {
		arr = arr[:len(arr)+1]
	} else if pos == len(arr) {
		return arr
	}
	copy(arr[pos+1:], arr[pos:])
	arr[pos] = simPair{v, j}
	return arr
}

// MergeTopK is the merge-variant incremental candidate update: s is the new
// similarity, prev the candidate set built over the old one,
// changedRows/changedCols the source rows and target columns whose inputs
// changed (every other score bitwise-unchanged). Rows that changed
// themselves are fully rescanned with TopK's row kernels; every other row
// merges its surviving entries with fresh scores of the changed columns
// (see the file comment for the exactness contract), dropping NaN scores as
// TopK does. Returns the new candidate set and the rows whose lists
// changed, ascending. prev is not mutated. Deltas too large for per-row
// work fall back to the bulk rebuild, making the result exact.
func MergeTopK(prev *Candidates, s Scorer, changedRows, changedCols []int, workers int) (*Candidates, []int) {
	n, m := prev.Rows, prev.Cols
	if !mergeWorthwhile(len(changedRows), n, len(changedCols), m) {
		next := TopK(s, prev.K, workers)
		return next, DiffRows(prev, next)
	}
	next := prev.Clone()
	if len(changedRows) == 0 && len(changedCols) == 0 {
		return next, nil
	}
	rescan := make([]bool, n)
	for _, i := range changedRows {
		rescan[i] = true
	}
	changed := make([]bool, m)
	for _, j := range changedCols {
		changed[j] = true
	}
	dirtyFlag := make([]bool, n)
	mergeRows := func(lo, hi int) {
		arr := make([]simPair, 0, prev.K)
		for i := lo; i < hi; i++ {
			if rescan[i] {
				continue
			}
			cols, vals := prev.Row(i)
			arr = arr[:0]
			for idx, j := range cols {
				if !changed[j] {
					arr = append(arr, simPair{vals[idx], j})
				}
			}
			for _, j := range changedCols {
				if v := s.Score(i, j); v == v {
					arr = simInsert(arr, prev.K, v, j)
				}
			}
			dirtyFlag[i] = writeMerged(next, i, arr, cols, vals)
		}
	}
	if n*(len(changedCols)+prev.K) >= candidateBudget && parallel.Workers(workers) > 1 {
		parallel.Blocks(workers, n, mergeRows)
	} else {
		mergeRows(0, n)
	}
	if len(changedRows) > 0 {
		selectRows(s, next, changedRows, workers)
	}
	next.syncLen()
	return next, mergedDirty(prev, next, dirtyFlag, changedRows)
}

// writeMerged stores a merged selection into next's row i (padding short
// rows with Col -1 / Val 0, as TopK's NaN pruning leaves them) and
// reports whether the stored row differs from the previous (cols, vals).
func writeMerged(next *Candidates, i int, arr []simPair, prevCols []int, prevVals []float64) bool {
	cols, vals := next.slots(i)
	for idx, p := range arr {
		cols[idx], vals[idx] = p.j, p.v
	}
	for idx := len(arr); idx < next.K; idx++ {
		cols[idx], vals[idx] = -1, 0
	}
	if len(arr) != len(prevCols) {
		return true
	}
	for idx := range arr {
		if arr[idx].j != prevCols[idx] || arr[idx].v != prevVals[idx] {
			return true
		}
	}
	return false
}

// mergedDirty assembles the ascending dirty-row list from the merge flags
// plus the fully rescanned rows (compared against prev like dirtyAmong).
func mergedDirty(prev, next *Candidates, dirtyFlag []bool, rescanned []int) []int {
	for _, i := range dirtyAmong(prev, next, rescanned) {
		dirtyFlag[i] = true
	}
	var dirty []int
	for i, d := range dirtyFlag {
		if d {
			dirty = append(dirty, i)
		}
	}
	return dirty
}

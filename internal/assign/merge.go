package assign

import "graphalign/internal/parallel"

// This file holds the merge variant of the incremental candidate update.
// UpdateTopK is bitwise-exact against a full rebuild: it keeps each row's
// list at a deeper reserve (2·TopK in the incremental session) whose
// invariant, every outside column ranking after the last entry, lets it
// score only the moved columns per row, and it still rescans a row in full
// once the reserve runs below k entries or, for an Embedding, once no entry
// of the row is left whose distance it can recompute to bound the moved
// columns (every entry's column moved). The merge variant keeps K-wide
// lists and never rescans for a moved column: it rebuilds each row's list
// from what is already known exactly — surviving old entries keep their
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

// MergeTopK is the merge-variant incremental candidate update: s is the new
// similarity, prev the candidate set built over the old one,
// changedRows/changedCols the source rows and target columns whose inputs
// changed (every other score bitwise-unchanged). Rows that changed
// themselves are fully rescanned with TopK's row kernels; every other row
// merges its surviving entries with fresh scores of the changed columns
// (see the file comment for the exactness contract), dropping NaN scores as
// TopK does. Returns the new candidate set and the number of rows fully
// rescanned; prev is not mutated.
// Deltas too large for per-row work fall back to the bulk rebuild, making
// the result exact.
func MergeTopK(prev *Candidates, s Scorer, changedRows, changedCols []int, workers int) (*Candidates, int) {
	n, m := prev.Rows, prev.Cols
	rescan, rows := markIndices(n, changedRows)
	changed, cols := markIndices(m, changedCols)
	if !mergeWorthwhile(len(rows), n, len(cols), m) {
		return TopK(s, prev.K, workers), n
	}
	next := prev.Clone()
	if len(rows) == 0 && len(cols) == 0 {
		return next, 0
	}
	mergeRows := func(lo, hi int) {
		arr := make([]rankEntry, 0, prev.K)
		for i := lo; i < hi; i++ {
			if rescan[i] {
				continue
			}
			pc, pv := prev.Row(i)
			arr = arr[:0]
			for idx, j := range pc {
				if !changed[j] {
					arr = append(arr, rankEntry{v: pv[idx], j: j})
				}
			}
			for _, j := range cols {
				if v := s.Score(i, j); v == v {
					arr = insertRanked(arr, prev.K, rankEntry{v: v, j: j}, false)
				}
			}
			nc, nv := next.slots(i)
			for idx, p := range arr {
				nc[idx], nv[idx] = p.j, p.v
			}
			for idx := len(arr); idx < next.K; idx++ {
				nc[idx], nv[idx] = -1, 0
			}
		}
	}
	if n*(len(cols)+prev.K) >= candidateBudget && parallel.Workers(workers) > 1 {
		parallel.Blocks(workers, n, mergeRows)
	} else {
		mergeRows(0, n)
	}
	if len(rows) > 0 {
		selectRows(s, next, rows, workers)
	}
	next.syncLen()
	return next, len(rows)
}

package assign

import "math"

// Candidate-graph repair for the auction solver. Top-k candidate lists built
// from low-rank similarities routinely violate Hall's condition: methods whose
// similarity is dominated by a few global directions (NSD's degree prior, many
// structurally equivalent low-degree nodes under REGAL signatures) hand large
// groups of rows nearly identical lists, so no matching can saturate every
// row and SolveAuction refuses the instance. The sparse pipeline's answer is
// the dense-JV fallback — correct, but it abandons the sparse solve entirely
// and, for the incremental mode, leaves no auction state to warm-start from.
//
// Augment repairs the graph instead: it runs Hopcroft–Karp once, and gives
// each unmatched row exactly one extra candidate — a distinct free column
// under the maximum matching, scored with the similarity's own Score so the
// entry is a real (row, column) similarity, not an invented value. Matching ∪
// augmented edges is a row-perfect matching by construction, so the result
// always passes Matchable. An unmatched row can never already hold a free
// column (that would be a length-1 augmenting path, contradicting maximality),
// so the added entry never duplicates an existing one.
//
// The repair is a pure function of its inputs: Hopcroft–Karp is
// deterministic, unmatched rows are processed in ascending order, and ties in
// the free-column search resolve to the lowest column. Unchanged inputs
// therefore reproduce the augmented set bitwise — the property the
// incremental session's empty-delta contract rests on.

// augmentPairBudget bounds the unmatched-rows × free-columns scoring work of
// the best-free-column search. Beyond it (pathological deficiencies where
// most rows are unmatched) the repair pairs rows and columns positionally —
// still deterministic and still row-saturating, just unscored; rows forced
// onto augmented edges are ones the candidate lists could never seat anyway.
const augmentPairBudget = 1 << 22

// Augment returns a row-saturating version of c, scoring added entries with
// s.Score (the same arithmetic TopK selects with); NaN scores are clamped to
// 0 so the added entry stays usable by the auction. When c is already
// matchable it is returned unchanged with a nil column list; otherwise the
// result is a fresh candidate set with stride K+1 and augCols[i] holding row
// i's added column (-1 for rows left alone).
//
// seed and prevAug, when non-nil, are a previous call's match and augCols
// returns: the maximum matching is grown from seed's still-valid pairs
// instead of from scratch, and an unmatched row keeps its previous repair
// column whenever that column is still free — so the added entries stay
// stable when the candidate lists change only locally, instead of
// reshuffling wholesale (every reshuffled row is a solver-visible change the
// caller would have to treat as dirty). match reports the base-graph matching
// the repair was built on, for use as the next call's seed.
func Augment(c *Candidates, s Scorer, seed, prevAug []int) (aug *Candidates, augCols, match []int) {
	if c.Rows > c.Cols {
		return c, nil, nil // structurally unmatchable; nothing to repair
	}
	matched, matchRow, matchCol := c.maxMatchingState(seed)
	if matched == c.Rows {
		return c, nil, matchRow
	}
	var rows, free []int
	freePos := make([]int, c.Cols) // col -> index in free, -1 taken/matched
	for j := range freePos {
		freePos[j] = -1
	}
	for i, j := range matchRow {
		if j == -1 {
			rows = append(rows, i)
		}
	}
	for j, i := range matchCol {
		if i == -1 {
			freePos[j] = len(free)
			free = append(free, j)
		}
	}
	augCols = make([]int, c.Rows)
	for i := range augCols {
		augCols[i] = -1
	}
	used := make([]bool, len(free))
	// Sticky pass: an unmatched row whose previous repair column is still
	// free keeps it.
	remaining := rows[:0:0]
	for _, i := range rows {
		if len(prevAug) == c.Rows {
			if j := prevAug[i]; j >= 0 && j < c.Cols && freePos[j] >= 0 && !used[freePos[j]] {
				used[freePos[j]] = true
				augCols[i] = j
				continue
			}
		}
		remaining = append(remaining, i)
	}
	if len(remaining)*len(free) <= augmentPairBudget {
		// Greedy best free column per remaining row, rows ascending. Scanning
		// the (ascending) free list with a strict improvement test keeps ties
		// on the lowest column.
		for _, i := range remaining {
			bestP, bestV := -1, math.Inf(-1)
			for p, j := range free {
				if used[p] {
					continue
				}
				v := s.Score(i, j)
				if math.IsNaN(v) {
					v = 0
				}
				if v > bestV {
					bestP, bestV = p, v
				}
			}
			used[bestP] = true
			augCols[i] = free[bestP]
		}
	} else {
		// Pathological deficiency: pair rows and columns positionally over the
		// unused free list — unscored but deterministic; rows forced onto
		// repair edges are ones the candidate lists could never seat anyway.
		p := 0
		for _, i := range remaining {
			for used[p] {
				p++
			}
			used[p] = true
			augCols[i] = free[p]
		}
	}

	k2 := c.K + 1
	out := &Candidates{
		Rows: c.Rows, Cols: c.Cols, K: k2,
		Col: make([]int, c.Rows*k2),
		Val: make([]float64, c.Rows*k2),
		Len: make([]int, c.Rows),
	}
	for i := 0; i < c.Rows; i++ {
		cols, vals := c.Row(i)
		dstC := out.Col[i*k2 : (i+1)*k2]
		dstV := out.Val[i*k2 : (i+1)*k2]
		n := copy(dstC, cols)
		copy(dstV, vals)
		if j := augCols[i]; j >= 0 {
			v := s.Score(i, j)
			if math.IsNaN(v) {
				v = 0
			}
			// Insert at the row's sorted position (value descending, column
			// ascending) to preserve the Candidates ordering invariant.
			pos := n
			for pos > 0 && (dstV[pos-1] < v || (dstV[pos-1] == v && dstC[pos-1] > j)) {
				dstC[pos], dstV[pos] = dstC[pos-1], dstV[pos-1]
				pos--
			}
			dstC[pos], dstV[pos] = j, v
			n++
		}
		for p := n; p < k2; p++ {
			dstC[p], dstV[p] = -1, 0
		}
		out.Len[i] = n
	}
	return out, augCols, matchRow
}

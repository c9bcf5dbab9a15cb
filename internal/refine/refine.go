// Package refine is the neighbourhood-agreement post-pass over a mapping:
// a set of source rows re-bids for targets that their matched neighbours
// point at, SortGreedy (assign.SolveGreedySparse) assigns the bids once per
// round, and a round is kept only when it raises the rows' total edge
// agreement. The caller chooses the rows; partition passes its cross-shard
// boundary.
//
// Rounds is deterministic: row scoring writes disjoint slots, SortGreedy is
// sequential, and the result is identical for any worker count.
package refine

import (
	"context"
	"math"
	"slices"

	"graphalign/internal/assign"
	"graphalign/internal/graph"
	"graphalign/internal/parallel"
)

// candidates is how many scored targets each row keeps per round.
const candidates = 8

// Rounds re-bids the source nodes in rows, which must be distinct and
// ascending, for at most maxRounds rounds and updates mapping (source node
// to target node, -1 unmatched) in place. It returns the number of rounds
// applied and the number of row moves they made.
//
// For row u and candidate target v, the bid is the number of neighbours w
// of u with mapping[w] adjacent to v, plus a stability bonus for u's
// current target and a degree-prior tie-break. A row bids only for targets
// that are unassigned or owned by another row, so source nodes outside rows
// never lose their target. A round is applied only when it strictly
// improves the rows' total neighbourhood agreement; refinement stops at the
// first round that does not, or when ctx is done. workers bounds the
// row-scoring fan-out; 0 means one per CPU.
func Rounds(ctx context.Context, src, dst *graph.Graph, mapping []int, rows []int, maxRounds, workers int) (rounds, moved int) {
	if len(rows) == 0 {
		return 0, 0
	}
	n1, n2 := src.N(), dst.N()
	inB := make([]bool, n1)
	for _, u := range rows {
		inB[u] = true
	}
	deg1, deg2 := src.Degrees(), dst.Degrees()

	// Scratch reused across rounds. poolStamp marks pool membership with
	// the round number, so neither it nor colOf is cleared between rounds.
	owner := make([]int, n2)
	candBuf := make([]cand, len(rows)*candidates)
	rowCands := make([][]cand, len(rows))
	poolStamp := make([]int, n2)
	colOf := make([]int, n2)
	var live, pool []int

	for round := 0; round < maxRounds; round++ {
		if ctx.Err() != nil {
			return rounds, moved
		}
		for v := range owner {
			owner[v] = -1
		}
		for u, v := range mapping {
			if v >= 0 {
				owner[v] = u
			}
		}

		// Per-row candidate scoring in contiguous row blocks. Each block
		// accumulates agreement counts in its own n2-length scratch, reset
		// through the touched list, and keeps a row's best candidates in
		// that row's fixed slots of candBuf.
		parallel.Blocks(workers, len(rows), func(lo, hi int) {
			acc := make([]float64, n2)
			seen := make([]bool, n2)
			var touched []int
			for r := lo; r < hi; r++ {
				u := rows[r]
				touched = touched[:0]
				for _, w := range src.Neighbors(u) {
					t := mapping[w]
					if t < 0 {
						continue
					}
					for _, v := range dst.Neighbors(t) {
						if owner[v] == -1 || inB[owner[v]] {
							if !seen[v] {
								seen[v] = true
								touched = append(touched, v)
							}
							acc[v]++
						}
					}
				}
				cur := mapping[u]
				if cur >= 0 && !seen[cur] {
					seen[cur] = true
					touched = append(touched, cur)
				}
				top := candBuf[r*candidates : r*candidates : (r+1)*candidates]
				for _, v := range touched {
					a := acc[v]
					score := a + 0.25/(1+math.Abs(float64(deg1[u]-deg2[v])))
					if v == cur {
						score += 0.5
					}
					top = insertCand(top, cand{v: v, score: score, agree: a})
					acc[v] = 0
					seen[v] = false
				}
				rowCands[r] = top
			}
		})

		// Rows with no candidates keep their assignment and sit the round
		// out; the remaining rows bid over the union of their candidates.
		stamp := round + 1
		live, pool = live[:0], pool[:0]
		addPool := func(v int) {
			if poolStamp[v] != stamp {
				poolStamp[v] = stamp
				pool = append(pool, v)
			}
		}
		for r, cands := range rowCands {
			if len(cands) == 0 {
				continue
			}
			live = append(live, r)
			for _, c := range cands {
				addPool(c.v)
			}
		}
		if len(live) == 0 {
			return rounds, moved
		}
		// A row's current target can fall out of its top candidates, and
		// SortGreedy maps every live row only when Rows <= Cols. Grow the
		// pool first with the live rows' own current targets (they are
		// freed when the round is applied, so reassigning them keeps the
		// mapping injective), then with unowned targets; when n2 >= n1 this
		// always reaches |pool| >= |live|.
		for _, r := range live {
			if v := mapping[rows[r]]; v >= 0 {
				addPool(v)
			}
		}
		for v := 0; v < n2 && len(pool) < len(live); v++ {
			if owner[v] == -1 {
				addPool(v)
			}
		}
		if len(pool) < len(live) {
			return rounds, moved
		}
		slices.Sort(pool)
		for j, v := range pool {
			colOf[v] = j
		}

		// A row's candidates are distinct pool members, so len(cands) <= kk.
		kk := min(candidates, len(pool))
		c := &assign.Candidates{
			Rows: len(live), Cols: len(pool), K: kk,
			Col: make([]int, len(live)*kk),
			Val: make([]float64, len(live)*kk),
			Len: make([]int, len(live)),
		}
		for li, r := range live {
			cands := rowCands[r]
			c.Len[li] = len(cands)
			for ci, cd := range cands {
				c.Col[li*kk+ci] = colOf[cd.v]
				c.Val[li*kk+ci] = cd.score
			}
			for ci := len(cands); ci < kk; ci++ {
				c.Col[li*kk+ci] = -1
			}
		}
		sol := assign.SolveGreedySparse(c)

		// One-step acceptance on the pure agreement objective, measured
		// against the mapping the bids were computed from.
		agreeOf := func(r, v int) float64 {
			if v < 0 {
				return 0
			}
			for _, cd := range rowCands[r] {
				if cd.v == v {
					return cd.agree
				}
			}
			return 0
		}
		var before, after float64
		changed := 0
		for li, r := range live {
			oldV := mapping[rows[r]]
			newV := -1
			if sol[li] >= 0 {
				newV = pool[sol[li]]
			}
			before += agreeOf(r, oldV)
			after += agreeOf(r, newV)
			if newV != oldV {
				changed++
			}
		}
		if after <= before || changed == 0 {
			return rounds, moved
		}
		for _, r := range live {
			mapping[rows[r]] = -1
		}
		for li, r := range live {
			if sol[li] >= 0 {
				mapping[rows[r]] = pool[sol[li]]
			}
		}
		rounds++
		moved += changed
	}
	return rounds, moved
}

// cand is one scored refinement candidate.
type cand struct {
	v     int
	score float64 // composite bid value
	agree float64 // pure neighborhood agreement (the objective)
}

// candBefore is the candidate order: score descending, ties to the lower
// target. It is total, so keeping the first candidates under it equals
// sorting every candidate and taking the prefix.
func candBefore(a, b cand) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	return a.v < b.v
}

// insertCand inserts c into top, which is kept in candBefore order, and
// drops the last element once len(top) reaches cap(top).
func insertCand(top []cand, c cand) []cand {
	i := len(top)
	if i < cap(top) {
		top = top[:i+1]
	} else if !candBefore(c, top[i-1]) {
		return top
	} else {
		i--
	}
	for ; i > 0 && candBefore(c, top[i-1]); i-- {
		top[i] = top[i-1]
	}
	top[i] = c
	return top
}

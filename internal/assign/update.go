package assign

import (
	"math"

	"graphalign/internal/matrix"
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

// Head returns the candidate set cut to each row's first k entries: c itself
// when k <= 0 or k >= c.K, else a fresh set of width k. The head of
// TopK(s, R) is bitwise TopK(s, k) for any k <= R, padding and Len included,
// because both orders are total.
func (c *Candidates) Head(k int) *Candidates {
	if k <= 0 || k >= c.K {
		return c
	}
	h := &Candidates{Rows: c.Rows, Cols: c.Cols, K: k,
		Col: make([]int, c.Rows*k), Val: make([]float64, c.Rows*k)}
	for i := 0; i < c.Rows; i++ {
		copy(h.Col[i*k:(i+1)*k], c.Col[i*c.K:])
		copy(h.Val[i*k:(i+1)*k], c.Val[i*c.K:])
	}
	h.syncLen()
	return h
}

// DiffRows returns, ascending, the rows whose candidate lists differ between
// a and b — the dirty set SolveAuctionWarm re-bids. Each row compares as its
// live entries (Row), so the two sets may differ in width: a head of stride K
// against an Augment result of stride K+1 with Len differs exactly in the
// rows that gained, lost or changed a repair entry. Values compare bitwise,
// so an unchanged NaN is unchanged.
func DiffRows(a, b *Candidates) []int {
	var dirty []int
	for i := 0; i < a.Rows; i++ {
		ac, av := a.Row(i)
		bc, bv := b.Row(i)
		if !sameRow(ac, av, bc, bv) {
			dirty = append(dirty, i)
		}
	}
	return dirty
}

// sameRow reports whether two live candidate rows are bitwise equal.
func sameRow(ac []int, av []float64, bc []int, bv []float64) bool {
	if len(ac) != len(bc) {
		return false
	}
	for idx := range ac {
		if ac[idx] != bc[idx] || math.Float64bits(av[idx]) != math.Float64bits(bv[idx]) {
			return false
		}
	}
	return true
}

// UpdateTopK incrementally maintains a top-k reserve after a similarity
// delta. prev holds each row's list at depth R = prev.K >= k, built by
// TopK(old, R) or an earlier UpdateTopK with the same k; s is the new
// similarity, changedRows the source rows and changedCols the target
// columns whose inputs changed (every other score must be bitwise
// unchanged; a factor-weight change means every row changed).
//
// Every list obeys the reserve invariant: each column outside row i's list
// ranks after its last entry, in TopK's order — (distance asc, NaN last,
// column asc) for an Embedding, (score desc, column asc) with NaN pruned for
// every other scorer. The invariant makes the first k entries exactly
// TopK(s, k) whenever a row holds at least k of them, and a row holding fewer
// than k holds every ranked column (TopK and the rescans below leave a row
// short only when the scorer ran out of non-NaN columns). The update keeps
// it per row: drop the moved columns; score only the moved columns (an
// Embedding gathers them into one block and runs matrix.SqDistInto over it,
// so every distance is bitwise the bulk scan's; other scorers use Score);
// merge in those that rank no later than the row's bound entry (see rows
// and bound; every moved column, for a row that held all its ranked
// columns); cut to R. A row is fully rescanned at depth R only when its
// source vector moved, it has no bound entry, or fewer than k entries are
// left — so the cost per apply is
// O(Rows · |changedCols| · d) plus the rescans, not a rescan of every row a
// moved column touches. Only when every row or every column moved does it
// run the bulk TopK(s, R).
//
// Returns the new reserve (prev is not mutated) and the number of rows fully
// rescanned. Which rows the solver must re-bid is the caller's to derive,
// with DiffRows over the sets it actually solves.
func UpdateTopK(prev *Candidates, s Scorer, changedRows, changedCols []int, k, workers int) (*Candidates, int) {
	n, m := prev.Rows, prev.Cols
	if k <= 0 || k > prev.K {
		k = prev.K
	}
	rescan, rows := markIndices(n, changedRows)
	colMoved, cols := markIndices(m, changedCols)
	if len(rows) == n || len(cols) == m {
		return TopK(s, prev.K, workers), n
	}
	next := prev.Clone()
	if len(cols) > 0 {
		u := &reserveUpdate{prev: prev, next: next, s: s, k: k, colMoved: colMoved, cols: cols, rescan: rescan}
		if e, ok := s.(*Embedding); ok {
			u.e = e
			u.block = matrix.Dense{Rows: len(cols), Cols: e.Dst.Cols, Data: make([]float64, 0, len(cols)*e.Dst.Cols)}
			for _, j := range cols {
				u.block.Data = append(u.block.Data, e.Dst.Row(j)...)
			}
		}
		if n*len(cols) >= candidateBudget && parallel.Workers(workers) > 1 {
			parallel.Blocks(workers, n, u.rows)
		} else {
			u.rows(0, n)
		}
	}
	list := rows[:0]
	for i, r := range rescan {
		if r {
			list = append(list, i)
		}
	}
	if len(list) > 0 {
		selectRows(s, next, list, workers)
	}
	next.syncLen()
	return next, len(list)
}

// markIndices returns the membership flags of idx over [0, n) and the
// distinct indices ascending.
func markIndices(n int, idx []int) ([]bool, []int) {
	flags := make([]bool, n)
	for _, i := range idx {
		flags[i] = true
	}
	list := make([]int, 0, len(idx))
	for i, f := range flags {
		if f {
			list = append(list, i)
		}
	}
	return flags, list
}

// reserveUpdate is one UpdateTopK merge pass: rows writes each row's merged
// list into next, or flags the row in rescan when it must be rebuilt.
type reserveUpdate struct {
	prev, next *Candidates
	s          Scorer
	// e is s as an Embedding (nil for other scorers), block its moved
	// target rows gathered in cols order.
	e        *Embedding
	block    matrix.Dense
	k        int
	colMoved []bool
	cols     []int
	rescan   []bool
}

// rows merges rows [lo, hi); see UpdateTopK. A moved column enters a row
// that held at least k entries if and only if it ranks no later than the
// row's bound entry (see bound); every other unmoved column outside the list
// ranks after the previous last entry, which ranks no earlier than the
// bound, so every column left out ranks after every entry kept. A row with
// no bound entry is rescanned, and so is one left with fewer than k.
func (u *reserveUpdate) rows(lo, hi int) {
	r := u.prev.K
	byDist := u.e != nil
	var d2 []float64
	if byDist {
		d2 = make([]float64, len(u.cols))
	}
	ins := make([]rankEntry, 0, r)
	for i := lo; i < hi; i++ {
		if u.rescan[i] {
			continue
		}
		pc, pv := u.prev.Row(i)
		var q []float64
		if byDist {
			q = u.e.Src.Row(i)
		}
		// A row holding fewer than k entries held every ranked column, so
		// every moved one may enter; any other row needs a bound entry.
		all := len(pc) < u.k
		last, ok := rankEntry{}, all
		if !all {
			last, ok = u.bound(pc, pv, q)
		}
		if !ok {
			u.rescan[i] = true
			continue
		}
		if byDist {
			matrix.SqDistInto(d2, q, &u.block)
		}
		ins = ins[:0]
		for b, j := range u.cols {
			x := rankEntry{j: j}
			if byDist {
				x.d2 = d2[b]
			} else if x.v = u.s.Score(i, j); x.v != x.v {
				continue
			}
			if all || !x.after(last, byDist) {
				if byDist {
					x.v = u.e.SimFromDist2(x.d2)
				}
				ins = insertRanked(ins, r, x, byDist)
			}
		}
		if l := u.splice(i, pc, pv, ins, q); !all && l < u.k {
			u.rescan[i] = true
		}
	}
}

// bound returns the entry of a previous list (pc, pv) whose ranking key is
// known and that moved columns must rank no later than to enter: the last
// entry for a value scorer, whose stored value is its key, and for an
// Embedding the last entry whose column did not move, at its recomputed
// distance (bitwise the bulk scan's). ok is false when every entry of an
// Embedding's list moved.
func (u *reserveUpdate) bound(pc []int, pv []float64, q []float64) (rankEntry, bool) {
	if u.e == nil {
		n := len(pc)
		return rankEntry{v: pv[n-1], j: pc[n-1]}, true
	}
	for idx := len(pc) - 1; idx >= 0; idx-- {
		if j := pc[idx]; !u.colMoved[j] {
			return rankEntry{d2: matrix.SqDist(q, u.e.Dst.Row(j)), v: pv[idx], j: j}, true
		}
	}
	return rankEntry{}, false
}

// splice writes row i of next: prev's surviving entries (pc, pv minus the
// moved columns) merged with the ranked moved entries ins, cut to next.K and
// padded with Col -1 / Val 0. It returns the row's length.
func (u *reserveUpdate) splice(i int, pc []int, pv []float64, ins []rankEntry, q []float64) int {
	cols, vals := u.next.slots(i)
	a, b, o := 0, 0, 0
	for ; o < len(cols); o++ {
		for a < len(pc) && u.colMoved[pc[a]] {
			a++
		}
		if a == len(pc) && b == len(ins) {
			break
		}
		if b < len(ins) && (a == len(pc) || u.movedFirst(ins[b], pc[a], pv[a], q)) {
			cols[o], vals[o] = ins[b].j, ins[b].v
			b++
		} else {
			cols[o], vals[o] = pc[a], pv[a]
			a++
		}
	}
	for idx := o; idx < len(cols); idx++ {
		cols[idx], vals[idx] = -1, 0
	}
	return o
}

// movedFirst reports whether the moved entry x ranks before the surviving
// entry (j, v). Values decide for a value scorer, and for an Embedding when
// they are distinct numbers (SimFromDist2 is monotone non-increasing); on
// equal or NaN values an Embedding recomputes the survivor's distance,
// bitwise the bulk scan's, rather than trust the value.
func (u *reserveUpdate) movedFirst(x rankEntry, j int, v float64, q []float64) bool {
	y := rankEntry{v: v, j: j}
	if u.e == nil || (x.v == x.v && v == v && x.v != v) {
		return y.after(x, false)
	}
	y.d2 = matrix.SqDist(q, u.e.Dst.Row(j))
	return y.after(x, true)
}

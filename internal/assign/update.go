package assign

import (
	"math"

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

// DiffRows returns the rows whose candidate lists differ between two
// candidate sets of identical shape, in ascending order — the dirty set a
// warm-started auction re-bids.
func DiffRows(a, b *Candidates) []int {
	return diffHeads(a, b, max(a.K, b.K))
}

// diffHeads returns, ascending, the rows whose first k candidates differ
// between a and b. Values compare bitwise, so an unchanged NaN is unchanged.
func diffHeads(a, b *Candidates, k int) []int {
	var dirty []int
	for i := 0; i < a.Rows; i++ {
		if headDiffers(a, b, i, k) {
			dirty = append(dirty, i)
		}
	}
	return dirty
}

// headDiffers reports whether row i's first k candidates differ between a
// and b.
func headDiffers(a, b *Candidates, i, k int) bool {
	ac, av := a.Row(i)
	bc, bv := b.Row(i)
	ac, av = ac[:min(k, len(ac))], av[:min(k, len(av))]
	bc, bv = bc[:min(k, len(bc))], bv[:min(k, len(bv))]
	if len(ac) != len(bc) {
		return true
	}
	for idx := range ac {
		if ac[idx] != bc[idx] || math.Float64bits(av[idx]) != math.Float64bits(bv[idx]) {
			return true
		}
	}
	return false
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
// Embedding gathers them into one contiguous block and runs the bulk scan's
// eight-chain, dimension-ascending distance kernel, so every distance is
// bitwise the bulk scan's; other scorers use Score); merge in those that rank
// no later than the row's previous last entry (see admission.admits; every
// moved column, for a row that held all its ranked columns); cut to R. A
// row is fully rescanned at depth R only when its source vector moved or
// fewer than k entries are left — so the cost per apply is
// O(Rows · |changedCols| · d) plus the rescans, not a rescan of every row a
// moved column touches. Only when every row or every column moved does it
// run the bulk TopK(s, R).
//
// Returns the new reserve (prev is not mutated), the rows whose first k
// entries changed, ascending — the warm-started auction's dirty set — and
// the number of rows fully rescanned.
func UpdateTopK(prev *Candidates, s Scorer, changedRows, changedCols []int, k, workers int) (*Candidates, []int, int) {
	n, m := prev.Rows, prev.Cols
	if k <= 0 || k > prev.K {
		k = prev.K
	}
	rescan, rows := markIndices(n, changedRows)
	colMoved, cols := markIndices(m, changedCols)
	if len(rows) == n || len(cols) == m {
		next := TopK(s, prev.K, workers)
		return next, diffHeads(prev, next, k), n
	}
	next := prev.Clone()
	if len(cols) > 0 {
		u := &reserveUpdate{prev: prev, next: next, s: s, k: k, colMoved: colMoved, cols: cols, rescan: rescan}
		if e, ok := s.(*Embedding); ok {
			u.e = e
			u.block = make([]float64, 0, len(cols)*e.Dst.Cols)
			for _, j := range cols {
				u.block = append(u.block, e.Dst.Row(j)...)
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
	return next, diffHeads(prev, next, k), len(list)
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
	// target rows gathered contiguously in cols order.
	e        *Embedding
	block    []float64
	k        int
	colMoved []bool
	cols     []int
	rescan   []bool
}

// rankEntry is a candidate in the scorer's order: column j at similarity v,
// and for an Embedding at squared distance d2, its ranking key.
type rankEntry struct {
	d2, v float64
	j     int
}

// after reports whether a ranks strictly after b: by distance for an
// Embedding (byDist), by value otherwise; ties go to the larger column.
func (a rankEntry) after(b rankEntry, byDist bool) bool {
	if byDist {
		return nnAfter(a.d2, b.d2) || (!nnAfter(b.d2, a.d2) && a.j > b.j)
	}
	return a.v < b.v || (a.v == b.v && a.j > b.j)
}

// insertRanked inserts x into the ascending-rank array arr bounded at capacity
// r; an entry pushed past r falls off the tail. Callers insert columns in
// ascending order, so x sits behind every entry it ties.
func insertRanked(arr []rankEntry, r int, x rankEntry, byDist bool) []rankEntry {
	pos := len(arr)
	for pos > 0 && arr[pos-1].after(x, byDist) {
		pos--
	}
	if len(arr) < r {
		arr = arr[:len(arr)+1]
	} else if pos == len(arr) {
		return arr
	}
	copy(arr[pos+1:], arr[pos:])
	arr[pos] = x
	return arr
}

// rows merges rows [lo, hi); see UpdateTopK.
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
			sqDistBlock(q, u.block, d2)
		}
		adm := u.admission(pc, pv, q)
		ins = ins[:0]
		for b, j := range u.cols {
			x := rankEntry{j: j}
			if byDist {
				x.d2 = d2[b]
				if adm.admits(x, u.e.SimFromDist2) {
					x.v = u.e.SimFromDist2(x.d2)
					ins = insertRanked(ins, r, x, true)
				}
			} else if x.v = u.s.Score(i, j); x.v == x.v && adm.admits(x, nil) {
				ins = insertRanked(ins, r, x, false)
			}
		}
		if l := u.splice(i, pc, pv, ins, q); !adm.all && l < u.k {
			u.rescan[i] = true
		}
	}
}

// admission is one row's rule for which moved columns may enter its list
// without breaking the reserve invariant.
type admission struct {
	// all admits every moved column: the row held fewer than k entries, so
	// it held every ranked column.
	all bool
	// last is the row's previous last entry; every unmoved column outside
	// the list ranks after it. exact reports that its ranking key is known:
	// always for values, and for an Embedding when its column did not move
	// (its distance is then recomputed, bitwise the bulk scan's).
	last  rankEntry
	exact bool
	// survivor is the last entry whose column did not move, with its
	// distance; ok is false when every entry moved.
	survivor   rankEntry
	survivorOK bool
	byDist     bool
	// passed and failed bracket the distances byValue has settled (NaN
	// until one has): at most passed beats last's value, at least failed
	// does not.
	passed, failed float64
}

// admission derives row i's rule from its previous list (pc, pv); q is the
// row's source vector for an Embedding.
func (u *reserveUpdate) admission(pc []int, pv []float64, q []float64) admission {
	a := admission{all: len(pc) < u.k, byDist: u.e != nil}
	if a.all {
		return a
	}
	n := len(pc)
	a.last = rankEntry{v: pv[n-1], j: pc[n-1]}
	a.exact = !a.byDist || !u.colMoved[a.last.j]
	if !a.byDist {
		return a
	}
	if a.exact {
		a.last.d2 = sqDistAsc(q, u.e.Dst.Row(a.last.j))
		return a
	}
	a.passed, a.failed = math.NaN(), math.NaN()
	for idx := n - 2; idx >= 0; idx-- {
		if j := pc[idx]; !u.colMoved[j] {
			a.survivor = rankEntry{d2: sqDistAsc(q, u.e.Dst.Row(j)), v: pv[idx], j: j}
			a.survivorOK = true
			break
		}
	}
	return a
}

// admits reports whether the moved entry x may enter: it ranks no later
// than the previous last entry. When that entry's column moved, an
// Embedding no longer knows its distance, only its value: a strictly
// larger value still proves x ranks before it (SimFromDist2 is monotone
// and maps only NaN to NaN); otherwise x must rank before the last
// survivor. Every moved column left out then ranks after every entry kept.
func (a *admission) admits(x rankEntry, sim func(float64) float64) bool {
	switch {
	case a.all:
		return true
	case a.exact:
		return !x.after(a.last, a.byDist)
	}
	return a.byValue(x.d2, sim) || (a.survivorOK && a.survivor.after(x, true))
}

// byValue reports whether sim(d2) is a number above the previous last
// entry's value. It calls the kernel only for distances the row has not
// bracketed yet: the kernel is monotone non-increasing, so a distance no
// larger than one that passed passes and one no smaller than one that
// failed fails.
func (a *admission) byValue(d2 float64, sim func(float64) float64) bool {
	switch {
	case a.last.v != a.last.v || d2 >= a.failed:
		return false
	case d2 <= a.passed:
		return true
	}
	v := sim(d2)
	if v != v {
		return false
	}
	if v > a.last.v {
		a.passed = d2
		return true
	}
	a.failed = d2
	return false
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
// entry (j, v). Distinct non-NaN values decide by themselves
// (SimFromDist2 is monotone non-increasing); on equal or NaN values an
// Embedding recomputes the survivor's distance, bitwise the bulk scan's,
// rather than trust the value.
func (u *reserveUpdate) movedFirst(x rankEntry, j int, v float64, q []float64) bool {
	if x.v == x.v && v == v && x.v != v {
		return x.v > v
	}
	if u.e == nil {
		return x.j < j
	}
	return rankEntry{d2: sqDistAsc(q, u.e.Dst.Row(j)), j: j}.after(x, true)
}

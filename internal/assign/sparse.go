package assign

import (
	"cmp"
	"slices"
)

// SolveNNSparse assigns each row its best candidate — by construction the
// row's highest-similarity column with ties broken by lowest column index,
// exactly matching SolveNN over the dense matrix. Like dense NN the result
// may be many-to-one; compose with EnforceOneToOneSparse for the paper's
// one-to-one restriction. Rows with no candidates (Cols == 0) map to -1.
func SolveNNSparse(c *Candidates) []int {
	mapping := make([]int, c.Rows)
	for i := range mapping {
		cols, _ := c.Row(i)
		if len(cols) == 0 {
			mapping[i] = -1
			continue
		}
		mapping[i] = cols[0]
	}
	return mapping
}

// SolveGreedySparse is SortGreedy over a candidate set: all candidates are
// sorted by similarity descending — ties by (row, column) ascending, the
// dense SolveGreedy order — and accepted whenever both endpoints are free.
//
// Rows whose candidates are all taken fall back to any free column (lowest
// index), so the result is always a maximal one-to-one matching: no row is
// left unmatched while a free column remains, on square and rectangular
// (n > m or n < m) instances alike.
func SolveGreedySparse(c *Candidates) []int {
	n, m := c.Rows, c.Cols
	pairs := make([]pair, 0, n*c.K)
	for i := 0; i < n; i++ {
		cols, vals := c.Row(i)
		for ci, j := range cols {
			pairs = append(pairs, pair{i, j, vals[ci]})
		}
	}
	// The value order is the plain > comparison, not cmp.Compare, so that
	// a NaN value sorts exactly as it always has.
	slices.SortFunc(pairs, func(a, b pair) int {
		if a.v != b.v {
			if a.v > b.v {
				return -1
			}
			return 1
		}
		if a.i != b.i {
			return cmp.Compare(a.i, b.i)
		}
		return cmp.Compare(a.j, b.j)
	})
	mapping := make([]int, n)
	for i := range mapping {
		mapping[i] = -1
	}
	usedCol := make([]bool, m)
	matched := 0
	for _, p := range pairs {
		if matched == n {
			break
		}
		if mapping[p.i] != -1 || usedCol[p.j] {
			continue
		}
		mapping[p.i] = p.j
		usedCol[p.j] = true
		matched++
	}
	// Fallback for starved rows: any free column keeps the matching maximal
	// (these rows had no surviving candidate). This applies regardless of
	// shape — when n > m the loop simply stops once the columns run out.
	if matched < n {
		free := make([]int, 0, m-matched)
		for j := 0; j < m; j++ {
			if !usedCol[j] {
				free = append(free, j)
			}
		}
		fi := 0
		for i := 0; i < n && fi < len(free); i++ {
			if mapping[i] == -1 {
				mapping[i] = free[fi]
				usedCol[free[fi]] = true
				fi++
			}
		}
	}
	return mapping
}

// EnforceOneToOneSparse is EnforceOneToOne restricted to a candidate set:
// contested columns go to the claimant with the highest candidate value
// (ties to the lowest row, matching the dense rule), and losers — taken in
// ascending row order — fall back to their best free candidate (highest
// value, then lowest column). Rows whose candidates are all taken take the
// lowest free column, keeping the matching maximal. mapping[i] must be -1 or
// one of row i's candidate columns (as produced by SolveNNSparse).
func EnforceOneToOneSparse(c *Candidates, mapping []int) []int {
	n, m := c.Rows, c.Cols
	out := make([]int, n)
	for i := range out {
		out[i] = -1
	}
	owner := make([]int, m)
	for j := range owner {
		owner[j] = -1
	}
	ownerV := make([]float64, m)
	for i, j := range mapping {
		if j < 0 || j >= m {
			continue
		}
		v, ok := c.value(i, j)
		if !ok {
			continue
		}
		if owner[j] == -1 || v > ownerV[j] {
			owner[j] = i
			ownerV[j] = v
		}
	}
	usedCol := make([]bool, m)
	for j, i := range owner {
		if i >= 0 {
			out[i] = j
			usedCol[j] = true
		}
	}
	// Losers take their best free candidate: rows are sorted by descending
	// value with ties on ascending column, so the first free candidate is it.
	for i := 0; i < n; i++ {
		if out[i] != -1 {
			continue
		}
		cols, _ := c.Row(i)
		for _, j := range cols {
			if !usedCol[j] {
				out[i] = j
				usedCol[j] = true
				break
			}
		}
	}
	// Maximality fallback for rows starved of candidates.
	fj := 0
	for i := 0; i < n; i++ {
		if out[i] != -1 {
			continue
		}
		for fj < m && usedCol[fj] {
			fj++
		}
		if fj == m {
			break
		}
		out[i] = fj
		usedCol[fj] = true
	}
	return out
}

// value returns row i's candidate value for column j, with ok false when j
// is not among row i's candidates.
func (c *Candidates) value(i, j int) (float64, bool) {
	cols, vals := c.Row(i)
	for ci, cj := range cols {
		if cj == j {
			return vals[ci], true
		}
	}
	return 0, false
}

// topKWeaker reports whether a is a weaker candidate than b under the
// top-k selection order: smaller value, or equal value with larger column.
func topKWeaker(a, b pair) bool {
	if a.v != b.v {
		return a.v < b.v
	}
	return a.j > b.j
}

func topKSiftUp(h []pair, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !topKWeaker(h[i], h[parent]) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func topKSiftDown(h []pair, i int) {
	topKSiftDownN(h, i, len(h))
}

// topKSiftDownN sifts h[i] down within the heap prefix h[:length], which lets
// the in-place heap-sort in selectScoreRow shrink the heap without reslicing.
func topKSiftDownN(h []pair, i, length int) {
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < length && topKWeaker(h[l], h[min]) {
			min = l
		}
		if r < length && topKWeaker(h[r], h[min]) {
			min = r
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

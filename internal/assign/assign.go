// Package assign implements the four assignment (matching-extraction)
// strategies the paper compares in Section 6.2: NearestNeighbor (NN),
// SortGreedy (SG), the Hungarian algorithm for maximum weight matching
// (MWM), and the Jonker–Volgenant shortest-augmenting-path LAP solver (JV).
//
// Every solver consumes a similarity matrix S where S.At(i, j) is the score
// of matching source node i to target node j (higher is better) and returns
// a mapping from source to target nodes. The exact solvers (MWM, JV)
// maximize the total similarity of a one-to-one assignment.
package assign

import (
	"fmt"

	"graphalign/internal/matrix"
	"graphalign/internal/parallel"
)

// Method identifies an assignment strategy.
type Method string

// The four assignment methods from the paper.
const (
	NearestNeighbor Method = "NN"
	SortGreedy      Method = "SG"
	Hungarian       Method = "MWM"
	JonkerVolgenant Method = "JV"
)

// Methods lists all assignment methods in the paper's order.
func Methods() []Method {
	return []Method{NearestNeighbor, SortGreedy, Hungarian, JonkerVolgenant}
}

// Solve dispatches to the requested method. The similarity matrix must have
// Rows <= Cols (source no larger than target); mapping[i] is the target
// assigned to source i (always >= 0 for the one-to-one methods; NN may
// repeat targets).
func Solve(method Method, sim *matrix.Dense) ([]int, error) {
	if sim.Rows > sim.Cols {
		return nil, fmt.Errorf("assign: source larger than target (%d > %d)", sim.Rows, sim.Cols)
	}
	switch method {
	case NearestNeighbor:
		return SolveNN(sim), nil
	case SortGreedy:
		return SolveGreedy(sim), nil
	case Hungarian:
		return SolveHungarian(sim), nil
	case JonkerVolgenant:
		return SolveJV(sim), nil
	default:
		return nil, fmt.Errorf("assign: unknown method %q", method)
	}
}

// SolveNN assigns each source row its highest-similarity target column,
// allowing many-to-one matches. This mirrors the raw nearest-neighbor
// extraction used by REGAL/CONE/GWL/S-GWL before the paper restricts them to
// one-to-one outputs.
//
// Ties on similarity resolve to the lowest column index (only a strictly
// greater value displaces the incumbent). This is a contract, not an
// accident: SolveNNSparse and the embedding k-NN scan promise the same
// rule, so sparse and dense NN agree wherever the tied columns survive
// candidate selection.
//
// Large matrices are row-blocked across the worker pool; each row is scanned
// by exactly one goroutine, so the result is identical to the serial scan.
func SolveNN(sim *matrix.Dense) []int {
	mapping := make([]int, sim.Rows)
	nnRows := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := sim.Row(i)
			best := 0
			for j, v := range row {
				if v > row[best] {
					best = j
				}
			}
			mapping[i] = best
		}
	}
	if sim.Rows*sim.Cols >= candidateBudget {
		parallel.Blocks(0, sim.Rows, nnRows)
	} else {
		nnRows(0, sim.Rows)
	}
	return mapping
}

// pair is a candidate match considered by SortGreedy.
type pair struct {
	i, j int
	v    float64
}

// SolveGreedy implements SortGreedy: consider all (i, j) pairs by similarity
// descending and accept a pair whenever both endpoints are still unmatched.
// Ties are broken by (i, j) order for determinism. The result is a maximal
// one-to-one matching.
//
// Rather than materializing and sorting all n*m pairs (O(nm log(nm)) and
// O(nm) memory), pairs are enumerated lazily: each row maintains a small
// buffer of its next-best candidates filled by bounded-heap partial
// selection (the sparse.go top-k heap), and a global heap merges the row
// streams in exactly the full-sort order. Greedy typically accepts a match
// within the first few candidates of each row, so only a tiny prefix of the
// pair stream is ever generated; buffers double on exhaustion, bounding the
// worst case at O(nm log m). The mapping is identical to the full-sort
// implementation on every input (see the equivalence test).
func SolveGreedy(sim *matrix.Dense) []int {
	n, m := sim.Rows, sim.Cols
	mapping := make([]int, n)
	for i := range mapping {
		mapping[i] = -1
	}
	if n == 0 || m == 0 {
		return mapping
	}
	usedCol := make([]bool, m)

	// Per-row lazy stream of pairs in (v desc, j asc) order.
	const greedyBuf0 = 8
	type stream struct {
		buf []pair
		pos int
		k   int
	}
	streams := make([]stream, n)

	// refill selects row i's next st.k candidates — those strictly after
	// (lastV, lastJ) in (v desc, j asc) order when after is set — skipping
	// columns already taken (their pairs would be rejected regardless).
	refill := func(i int, after bool, lastV float64, lastJ int) {
		st := &streams[i]
		row := sim.Row(i)
		h := st.buf[:0]
		k := st.k
		for j, v := range row {
			if usedCol[j] {
				continue
			}
			if after && (v > lastV || (v == lastV && j <= lastJ)) {
				continue
			}
			if len(h) < k {
				h = append(h, pair{i, j, v})
				topKSiftUp(h, len(h)-1)
				continue
			}
			// Columns arrive in increasing j, so on equal value the incumbent
			// (smaller j) wins and the newcomer is skipped.
			if v <= h[0].v {
				continue
			}
			h[0] = pair{i, j, v}
			topKSiftDown(h, 0)
		}
		// Heap-sort in place into (v desc, j asc) order.
		for l := len(h) - 1; l > 0; l-- {
			h[0], h[l] = h[l], h[0]
			topKSiftDownN(h, 0, l)
		}
		st.buf = h
		st.pos = 0
	}

	// Global min-heap of stream indices keyed by each stream's head pair in
	// the full-sort order (v desc, i asc, j asc); the merge therefore emits
	// pairs in exactly the order the full sort would.
	gh := make([]int, 0, n)
	ghLess := func(a, b int) bool {
		pa := streams[a].buf[streams[a].pos]
		pb := streams[b].buf[streams[b].pos]
		if pa.v != pb.v {
			return pa.v > pb.v
		}
		return a < b // pa.i == a, pa.j tie unreachable across distinct rows
	}
	ghSiftDown := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			min := i
			if l < len(gh) && ghLess(gh[l], gh[min]) {
				min = l
			}
			if r < len(gh) && ghLess(gh[r], gh[min]) {
				min = r
			}
			if min == i {
				return
			}
			gh[i], gh[min] = gh[min], gh[i]
			i = min
		}
	}
	ghPop := func() {
		gh[0] = gh[len(gh)-1]
		gh = gh[:len(gh)-1]
		ghSiftDown(0)
	}

	for i := 0; i < n; i++ {
		streams[i] = stream{k: greedyBuf0}
		refill(i, false, 0, 0)
		if len(streams[i].buf) > 0 {
			gh = append(gh, i)
		}
	}
	// Initial heads are each row's maximum: heapify.
	for i := len(gh)/2 - 1; i >= 0; i-- {
		ghSiftDown(i)
	}

	matched := 0
	for len(gh) > 0 && matched < n {
		i := gh[0]
		st := &streams[i]
		p := st.buf[st.pos]
		if !usedCol[p.j] {
			// Head row is unmatched by construction (matched rows' streams
			// are removed), so this pair is accepted — and the row's
			// remaining pairs, which the full sort would skip, are dropped
			// with its stream.
			mapping[i] = p.j
			usedCol[p.j] = true
			matched++
			ghPop()
			continue
		}
		st.pos++
		if st.pos == len(st.buf) {
			last := st.buf[len(st.buf)-1]
			if st.k < m {
				st.k *= 2
			}
			refill(i, true, last.v, last.j)
			if len(st.buf) == 0 {
				ghPop()
				continue
			}
		}
		ghSiftDown(0)
	}
	return mapping
}

// TotalSimilarity returns the sum of sim over a mapping (useful in tests and
// for comparing solvers); unmatched rows (mapping[i] < 0) contribute zero.
func TotalSimilarity(sim *matrix.Dense, mapping []int) float64 {
	var s float64
	for i, j := range mapping {
		if j >= 0 {
			s += sim.At(i, j)
		}
	}
	return s
}

// EnforceOneToOne converts a possibly many-to-one mapping into a one-to-one
// mapping: source rows keep their target when they are its unique claimant
// with the highest similarity; losers are re-assigned greedily among the
// remaining columns. This is the paper's restriction of NN-based methods to
// one-to-one outputs.
func EnforceOneToOne(sim *matrix.Dense, mapping []int) []int {
	n, m := sim.Rows, sim.Cols
	out := make([]int, n)
	for i := range out {
		out[i] = -1
	}
	owner := make([]int, m)
	for j := range owner {
		owner[j] = -1
	}
	for i, j := range mapping {
		if j < 0 || j >= m {
			continue
		}
		if owner[j] == -1 || sim.At(i, j) > sim.At(owner[j], j) {
			owner[j] = i
		}
	}
	usedCol := make([]bool, m)
	for j, i := range owner {
		if i >= 0 {
			out[i] = j
			usedCol[j] = true
		}
	}
	// Re-assign the losers greedily by best remaining column.
	var losers []int
	for i, j := range out {
		if j == -1 {
			losers = append(losers, i)
		}
	}
	for _, i := range losers {
		best, bestV := -1, 0.0
		row := sim.Row(i)
		for j, v := range row {
			if usedCol[j] {
				continue
			}
			if best == -1 || v > bestV {
				best, bestV = j, v
			}
		}
		if best >= 0 {
			out[i] = best
			usedCol[best] = true
		}
	}
	return out
}

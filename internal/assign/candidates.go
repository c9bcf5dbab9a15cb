package assign

import (
	"math"

	"graphalign/internal/matrix"
	"graphalign/internal/parallel"
)

// Candidates is the sparse per-row candidate set the sparse assignment
// pipeline operates on: for each source row, its K highest-similarity target
// columns, stored row-major and sorted within each row by descending value
// with ties broken by ascending column. K is uniform across rows (capped at
// Cols), which keeps the layout a flat pair of arrays the auction's inner
// loop can stream through.
//
// A candidate set is immutable once built and is a pure function of its
// inputs, so it can be shared across goroutines freely.
type Candidates struct {
	Rows, Cols int
	// K is the number of candidates per row (min(requested k, Cols)).
	K int
	// Col[i*K+c] and Val[i*K+c] are the column and similarity of row i's
	// c-th best candidate.
	Col []int
	Val []float64
	// Len, when non-nil, gives each row's actual candidate count (<= K):
	// producers that prune candidates (TopK dropping NaN scores) leave short
	// rows padded with Col -1 / Val 0, and Row trims the padding. Nil means
	// every row holds exactly K candidates.
	Len []int
}

// Row returns row i's candidate columns and values (views into shared
// storage; treat as read-only).
func (c *Candidates) Row(i int) ([]int, []float64) {
	lo, hi := i*c.K, (i+1)*c.K
	if c.Len != nil {
		hi = lo + c.Len[i]
	}
	return c.Col[lo:hi], c.Val[lo:hi]
}

// slots returns row i's full K-wide storage, padding included.
func (c *Candidates) slots(i int) ([]int, []float64) {
	return c.Col[i*c.K : (i+1)*c.K], c.Val[i*c.K : (i+1)*c.K]
}

// candidateBudget is the approximate per-call work (rows * cols) above which
// candidate generation fans rows out across the worker pool. Each row is
// selected by exactly one goroutine, so results are identical for any worker
// count.
const candidateBudget = 1 << 18

// Scorer is a similarity matrix the sparse pipeline reads row by row, so it
// never has to be materialized: a dense matrix (DenseScorer), a distance
// kernel over per-node embeddings (Embedding) or a low-rank factor product
// (FactorEmbedding). Aligners expose theirs through algo.ScoringAligner.
type Scorer interface {
	// Shape returns the similarity's dimensions (source rows, target cols).
	Shape() (rows, cols int)
	// ScoreRow returns row i's exact scores. buf (len cols) is scratch the
	// implementation may fill and return; a scorer holding the row already
	// returns a view instead. Treat the result as read-only.
	ScoreRow(i int, buf []float64) []float64
	// Score returns entry (i, j), bitwise equal to ScoreRow(i, ·)[j].
	Score(i, j int) float64
	// Similarity materializes the dense matrix, bitwise what the aligner's
	// own dense path computes; the sparse solve's dense-JV fallback uses it.
	Similarity() *matrix.Dense
}

// DenseScorer is a materialized similarity matrix as a Scorer.
type DenseScorer struct{ Sim *matrix.Dense }

// Shape implements Scorer.
func (d DenseScorer) Shape() (int, int) { return d.Sim.Rows, d.Sim.Cols }

// ScoreRow implements Scorer with a view of the stored row.
func (d DenseScorer) ScoreRow(i int, _ []float64) []float64 { return d.Sim.Row(i) }

// Score implements Scorer.
func (d DenseScorer) Score(i, j int) float64 { return d.Sim.At(i, j) }

// Similarity implements Scorer; the matrix is returned, not copied.
func (d DenseScorer) Similarity() *matrix.Dense { return d.Sim }

// TopK reduces a similarity to its per-row top-k candidate set, ordered
// (score desc, column asc). k <= 0 or k >= cols keeps every column. Rows
// are fanned out across at most workers goroutines (0 = one per CPU, 1 =
// sequential); the output is identical for any worker count.
//
// An Embedding selects with its fused k-NN scan (topKEmbeddingBrute) and
// keeps NaN distances, ranked last. Every other scorer bounded-heap selects
// from ScoreRow, O(m log k) per row, and prunes NaN scores: rows left short
// are padded with Col -1 / Val 0 and recorded in Candidates.Len, and a fully
// starved row surfaces as a *StarvedRowError from SolveSparse.
func TopK(s Scorer, k, workers int) *Candidates {
	n, m := s.Shape()
	if k <= 0 || k > m {
		k = m
	}
	c := &Candidates{Rows: n, Cols: m, K: k,
		Col: make([]int, n*k), Val: make([]float64, n*k)}
	selectRows(s, c, nil, workers)
	c.syncLen()
	return c
}

// selectRows recomputes candidate rows of c from s: every row when rows is
// nil, else the listed ones. The kernel is picked once per call.
func selectRows(s Scorer, c *Candidates, rows []int, workers int) {
	count := c.Rows
	if rows != nil {
		count = len(rows)
	}
	if count == 0 || c.Cols == 0 {
		return
	}
	var kernel func(lo, hi int)
	if e, ok := s.(*Embedding); ok {
		if e.Src.Cols != e.Dst.Cols {
			panic("assign: embedding side dims differ")
		}
		kernel = func(lo, hi int) { topKEmbeddingBrute(e, c, rows, lo, hi) }
	} else {
		kernel = func(lo, hi int) {
			buf := make([]float64, c.Cols)
			heap := make([]pair, 0, c.K)
			for idx := lo; idx < hi; idx++ {
				i := rowAt(rows, idx)
				heap = selectScoreRow(c, i, s.ScoreRow(i, buf), heap)
			}
		}
	}
	if count*c.Cols >= candidateBudget && parallel.Workers(workers) > 1 {
		parallel.Blocks(workers, count, kernel)
	} else {
		kernel(0, count)
	}
}

// rowAt maps a kernel's loop index to a row: the index itself when rows is
// nil, else rows[idx].
func rowAt(rows []int, idx int) int {
	if rows == nil {
		return idx
	}
	return rows[idx]
}

// syncLen derives Len from the rows' padding: a row is short when its last
// slot holds column -1. Len stays nil when every row is full.
func (c *Candidates) syncLen() {
	c.Len = nil
	if c.K == 0 {
		return
	}
	for i := 0; i < c.Rows; i++ {
		if c.Col[(i+1)*c.K-1] >= 0 {
			continue
		}
		c.Len = make([]int, c.Rows)
		for r := range c.Len {
			cols, _ := c.slots(r)
			l := c.K
			for l > 0 && cols[l-1] < 0 {
				l--
			}
			c.Len[r] = l
		}
		return
	}
}

// selectScoreRow bounded-heap selects row's non-NaN top-K into c's row i,
// padding short rows with Col -1 / Val 0, and returns the reusable heap
// storage.
func selectScoreRow(c *Candidates, i int, row []float64, heap []pair) []pair {
	k := c.K
	heap = selectTopK(heap[:0], row, k)
	// Heap-sort the selection in place into descending (v, asc j) order:
	// repeatedly move the weakest candidate to the tail.
	cols, vals := c.slots(i)
	for l := len(heap) - 1; l > 0; l-- {
		heap[0], heap[l] = heap[l], heap[0]
		topKSiftDownN(heap, 0, l)
	}
	for idx, p := range heap {
		cols[idx], vals[idx] = p.j, p.v
	}
	for idx := len(heap); idx < k; idx++ {
		cols[idx], vals[idx] = -1, 0
	}
	return heap
}

// selectTopK pushes row's k strongest non-NaN (value, column) entries onto
// h (reused storage, passed in emptied) using the bounded min-heap ordered
// by (v asc, j desc): the root is the weakest kept candidate, and among
// equal values the larger column is evicted first, so ties keep the smaller
// column. A NaN compares false against every bound, so admitting one would
// let it evict a real score and never leave; the test sits behind the bound
// check, off the common path.
func selectTopK(h []pair, row []float64, k int) []pair {
	for j, v := range row {
		if len(h) < k {
			if v == v {
				h = append(h, pair{0, j, v})
				topKSiftUp(h, len(h)-1)
			}
			continue
		}
		// Columns arrive in increasing j, so on equal value the incumbent
		// (smaller j) wins and the newcomer is skipped.
		if v <= h[0].v || v != v {
			continue
		}
		h[0] = pair{0, j, v}
		topKSiftDown(h, 0)
	}
	return h
}

// Embedding is a similarity matrix in factored form: per-node embedding rows
// for the source and target graphs plus the monotone non-increasing map from
// squared Euclidean row distance to similarity score. Aligners whose
// similarity is a pure function of embedding distance (REGAL, CONE, GRASP)
// return it from algo.ScoringAligner, so the sparse pipeline runs k-NN
// candidate search directly over the embeddings and never materializes the
// dense n x m similarity matrix.
type Embedding struct {
	Src, Dst *matrix.Dense
	// SimFromDist2 converts a squared Euclidean distance between an Src row
	// and a Dst row into the aligner's similarity score. It must be monotone
	// non-increasing so that nearest-in-embedding equals best-similarity,
	// and map NaN to NaN, so that a number-valued score always stands for a
	// number-valued distance (UpdateTopK's splice orders two distinct
	// number-valued scores without recomputing their distances).
	SimFromDist2 func(d2 float64) float64
}

// Clone returns a deep copy of both sides' embeddings (the kernel is
// shared).
func (e *Embedding) Clone() *Embedding {
	return &Embedding{Src: e.Src.Clone(), Dst: e.Dst.Clone(), SimFromDist2: e.SimFromDist2}
}

// Shape implements Scorer.
func (e *Embedding) Shape() (int, int) { return e.Src.Rows, e.Dst.Rows }

// ScoreRow implements Scorer through matrix.SqDistInto, bitwise the k-NN
// scan's and matrix.PairwiseSqDist's values.
func (e *Embedding) ScoreRow(i int, buf []float64) []float64 {
	matrix.SqDistInto(buf, e.Src.Row(i), e.Dst)
	for j, d2 := range buf {
		buf[j] = e.SimFromDist2(d2)
	}
	return buf
}

// Score implements Scorer through matrix.SqDist, bitwise ScoreRow's value:
// probe distances compare exactly against stored candidate values.
func (e *Embedding) Score(i, j int) float64 {
	return e.SimFromDist2(matrix.SqDist(e.Src.Row(i), e.Dst.Row(j)))
}

// Similarity materializes the full dense similarity matrix from the
// embedding — the fallback of the sparse pipeline when the candidate graph
// is unmatchable, and bitwise what the aligner's own dense path computes
// (same row-major squared-distance accumulation order).
func (e *Embedding) Similarity() *matrix.Dense {
	sim := matrix.PairwiseSqDist(e.Src, e.Dst)
	for i, d2 := range sim.Data {
		sim.Data[i] = e.SimFromDist2(d2)
	}
	return sim
}

// topKEmbeddingBrute fills rows [lo, hi) (see rowAt) by a flat distance scan
// fused with bounded selection; it is the one k-NN kernel for every
// embedding width. Target rows go through matrix.SqDist8 eight at a time —
// each distance bitwise the PairwiseSqDist / matrix.SqDistInto value — and
// every distance is compared against the current k-th-nearest bound while
// still in a register, so distances are never stored to a buffer or
// re-scanned. (A half-dimension partial-distance cut was tried and measured
// slower at these dims: the data-dependent branches and serialized
// completion loops cost more than the skipped FLOPs.) The selection is
// insertRanked's sorted array (cheaper than a heap at candidate-set sizes,
// and already in output order) in TopK's (distance asc, NaN last, id asc)
// order, which is descending-similarity order because SimFromDist2 is
// monotone. Every test is written !(x >= bound) against insertNearest's bound,
// so a NaN distance, or any distance against a NaN bound, reaches
// insertRanked, which ranks it.
func topKEmbeddingBrute(e *Embedding, c *Candidates, rows []int, lo, hi int) {
	m, k := c.Cols, c.K
	d := e.Dst.Cols
	data := e.Dst.Data
	arr := make([]rankEntry, 0, k)
	for idx := lo; idx < hi; idx++ {
		i := rowAt(rows, idx)
		q := e.Src.Row(i)
		arr = arr[:0]
		bound := math.NaN()
		j := 0
		for ; j+8 <= m; j += 8 {
			s0, s1, s2, s3, s4, s5, s6, s7 := matrix.SqDist8(q, data[j*d:(j+8)*d])
			if !(s0 >= bound) {
				arr, bound = insertNearest(arr, k, s0, j)
			}
			if !(s1 >= bound) {
				arr, bound = insertNearest(arr, k, s1, j+1)
			}
			if !(s2 >= bound) {
				arr, bound = insertNearest(arr, k, s2, j+2)
			}
			if !(s3 >= bound) {
				arr, bound = insertNearest(arr, k, s3, j+3)
			}
			if !(s4 >= bound) {
				arr, bound = insertNearest(arr, k, s4, j+4)
			}
			if !(s5 >= bound) {
				arr, bound = insertNearest(arr, k, s5, j+5)
			}
			if !(s6 >= bound) {
				arr, bound = insertNearest(arr, k, s6, j+6)
			}
			if !(s7 >= bound) {
				arr, bound = insertNearest(arr, k, s7, j+7)
			}
		}
		for ; j < m; j++ {
			if s := matrix.SqDist(q, data[j*d:(j+1)*d]); !(s >= bound) {
				arr, bound = insertNearest(arr, k, s, j)
			}
		}
		cols, vals := c.slots(i)
		for idx, p := range arr {
			cols[idx] = p.j
			vals[idx] = e.SimFromDist2(p.d2)
		}
	}
}

// rankEntry is a candidate in the scorer's order: column j at similarity v,
// and for an Embedding at squared distance d2, its ranking key.
type rankEntry struct {
	d2, v float64
	j     int
}

// after reports whether a ranks strictly after b: by distance with NaN last
// for an Embedding (byDist), by value otherwise; ties, and two NaN
// distances, go to the larger column.
func (a rankEntry) after(b rankEntry, byDist bool) bool {
	switch {
	case !byDist:
		return a.v < b.v || (a.v == b.v && a.j > b.j)
	case a.d2 > b.d2:
		return true
	case a.d2 < b.d2:
		return false
	case (a.d2 != a.d2) != (b.d2 != b.d2):
		return a.d2 != a.d2
	}
	return a.j > b.j
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

// insertNearest inserts target j at squared distance d2 into the k-nearest
// array through insertRanked and returns the array and its new bound: NaN,
// which every distance passes, until the array holds k entries, and its last
// distance after.
func insertNearest(arr []rankEntry, k int, d2 float64, j int) ([]rankEntry, float64) {
	arr = insertRanked(arr, k, rankEntry{d2: d2, j: j}, true)
	if len(arr) < k {
		return arr, math.NaN()
	}
	return arr, arr[k-1].d2
}

// Matchable reports whether the candidate graph admits a matching that
// saturates every row (a prerequisite for the auction solver: rows that
// cannot all be matched within their candidates make the auction chase an
// infeasible assignment). It runs Hopcroft–Karp over the candidate edges,
// O(E sqrt(V)) — negligible next to the solve itself. Rows > Cols is
// trivially unmatchable.
func (c *Candidates) Matchable() bool {
	if c.Rows > c.Cols {
		return false
	}
	mm, _, _ := c.maxMatchingState(nil)
	return mm == c.Rows
}

// maxMatchingState runs Hopcroft–Karp over the candidate bipartite graph and
// returns the maximum number of simultaneously matchable rows plus the
// matching itself (row -> col and col -> row, -1 for free), for callers that
// repair an unmatchable candidate graph (see Augment). seed,
// when length Rows, pre-matches each (i, seed[i]) pair that is still a
// candidate edge and collision-free (first row wins, ascending) before the
// search runs; Hopcroft–Karp only grows a matching, so seeded pairs survive
// unless absorbed into an augmenting path — which keeps the matching (and
// hence the repair built on it) stable across small candidate-set edits
// instead of reshuffling wholesale.
func (c *Candidates) maxMatchingState(seed []int) (int, []int, []int) {
	const inf = int(^uint(0) >> 1)
	n := c.Rows
	matchRow := make([]int, n) // row -> col, -1 free
	matchCol := make([]int, c.Cols)
	for i := range matchRow {
		matchRow[i] = -1
	}
	for j := range matchCol {
		matchCol[j] = -1
	}
	dist := make([]int, n)
	queue := make([]int, 0, n)
	matched := 0
	if len(seed) == n {
		for i, j := range seed {
			if j < 0 || j >= c.Cols || matchCol[j] != -1 {
				continue
			}
			cols, _ := c.Row(i)
			for _, cj := range cols {
				if cj == j {
					matchRow[i], matchCol[j] = j, i
					matched++
					break
				}
			}
		}
	}
	for {
		// BFS layering from free rows.
		queue = queue[:0]
		for i := 0; i < n; i++ {
			if matchRow[i] == -1 {
				dist[i] = 0
				queue = append(queue, i)
			} else {
				dist[i] = inf
			}
		}
		found := false
		for qi := 0; qi < len(queue); qi++ {
			i := queue[qi]
			cols, _ := c.Row(i)
			for _, j := range cols {
				next := matchCol[j]
				if next == -1 {
					found = true
				} else if dist[next] == inf {
					dist[next] = dist[i] + 1
					queue = append(queue, next)
				}
			}
		}
		if !found {
			return matched, matchRow, matchCol
		}
		// DFS augmentation along the layering.
		var try func(i int) bool
		try = func(i int) bool {
			cols, _ := c.Row(i)
			for _, j := range cols {
				next := matchCol[j]
				if next == -1 || (dist[next] == dist[i]+1 && try(next)) {
					matchRow[i] = j
					matchCol[j] = i
					return true
				}
			}
			dist[i] = inf
			return false
		}
		for i := 0; i < n; i++ {
			if matchRow[i] == -1 && try(i) {
				matched++
			}
		}
	}
}

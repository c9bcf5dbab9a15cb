// Package netalign implements a NetAlign-style sparse message-passing
// aligner (Bayati, Gleich, Saberi, Wang: "Message-Passing Algorithms for
// Sparse Network Alignment").
//
// The paper's Section 4 reports trying NetAlign with the same enhancements
// granted to the other methods (the degree-similarity prior of §6.1 and the
// JV assignment) and excluding it for inadequate quality; this package
// exists to make that exclusion reproducible (see the "excluded-netalign"
// experiment).
//
// NetAlign maximizes  w·x + (beta/2)·(#preserved squares)  over matchings x
// restricted to a sparse candidate set L. A "square" is a pair of candidate
// matches (i,j),(u,v) in L with (i,u) an edge of the source and (j,v) an
// edge of the target — exactly one unit of edge overlap. The solver here is
// a damped coordinate-ascent on square support: candidate scores are
// repeatedly reinforced by the current soft-matching mass of their square
// partners, which is the belief-propagation update with messages collapsed
// to their means (a documented simplification of the original's max-product
// messages; see DESIGN.md).
package netalign

import (
	"context"
	"errors"
	"sort"

	"graphalign/internal/algo"
	"graphalign/internal/assign"
	"graphalign/internal/graph"
	"graphalign/internal/matrix"
)

// NetAlign aligns graphs by sparse candidate message passing.
type NetAlign struct {
	// CandidatesPerNode bounds |L| to k candidates per source node, chosen
	// by prior similarity.
	CandidatesPerNode int
	// Beta weighs square (edge-overlap) rewards against prior weights.
	Beta float64
	// Iters is the number of reinforcement sweeps.
	Iters int
	// Damping mixes old and new scores (0 = no memory, 1 = frozen).
	Damping float64
}

// New returns NetAlign with the settings used by the exclusion experiment.
func New() *NetAlign {
	return &NetAlign{CandidatesPerNode: 10, Beta: 1, Iters: 20, Damping: 0.5}
}

// Name implements algo.Aligner.
func (na *NetAlign) Name() string { return "NetAlign" }

// DefaultAssignment implements algo.Aligner; the study grants excluded
// methods the same JV stage as everyone else.
func (na *NetAlign) DefaultAssignment() assign.Method { return assign.JonkerVolgenant }

// candidate is one (i, j) pair of the sparse candidate set L.
type candidate struct {
	i, j  int
	w     float64 // prior weight
	score float64 // current belief
}

// Similarity implements algo.Aligner; ctx is checked per candidate row
// during set construction and once per reinforcement sweep.
func (na *NetAlign) Similarity(ctx context.Context, src, dst *graph.Graph) (*matrix.Dense, error) {
	n, m := src.N(), dst.N()
	if n == 0 || m == 0 {
		return nil, errors.New("netalign: empty graph")
	}
	k := na.CandidatesPerNode
	if k <= 0 {
		k = 10
	}
	if k > m {
		k = m
	}
	prior := algo.DegreePrior(src, dst)

	// Build the candidate set: top-k prior entries per source node.
	cands := make([]candidate, 0, n*k)
	index := make(map[[2]int]int, n*k) // (i, j) -> candidate id
	colIdx := make([]int, m)
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		row := prior.Row(i)
		for j := range colIdx {
			colIdx[j] = j
		}
		sort.Slice(colIdx, func(a, b int) bool { return row[colIdx[a]] > row[colIdx[b]] })
		for _, j := range colIdx[:k] {
			index[[2]int{i, j}] = len(cands)
			cands = append(cands, candidate{i: i, j: j, w: row[j], score: row[j]})
		}
	}

	// Square lists: for each candidate, the candidate ids it forms a
	// square with.
	squares := make([][]int, len(cands))
	for cid, c := range cands {
		for _, u := range src.Neighbors(c.i) {
			for _, v := range dst.Neighbors(c.j) {
				if pid, ok := index[[2]int{u, v}]; ok {
					squares[cid] = append(squares[cid], pid)
				}
			}
		}
	}

	// Damped reinforcement sweeps with per-node normalization (the
	// matching constraint's soft analogue).
	next := make([]float64, len(cands))
	rowMass := make([]float64, n)
	colMass := make([]float64, m)
	for it := 0; it < na.Iters; it++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for i := range rowMass {
			rowMass[i] = 0
		}
		for j := range colMass {
			colMass[j] = 0
		}
		for _, c := range cands {
			rowMass[c.i] += c.score
			colMass[c.j] += c.score
		}
		for cid, c := range cands {
			// Normalized belief of this candidate: damp competition by its
			// row/column mass.
			var support float64
			for _, pid := range squares[cid] {
				p := cands[pid]
				denom := rowMass[p.i] + colMass[p.j] - 2*p.score
				norm := p.score
				if denom > 0 {
					norm = p.score / (1 + denom)
				}
				support += norm
			}
			next[cid] = c.w + na.Beta*support
		}
		// Damping + renormalization to keep magnitudes bounded.
		var maxScore float64
		for cid := range cands {
			s := na.Damping*cands[cid].score + (1-na.Damping)*next[cid]
			cands[cid].score = s
			if s > maxScore {
				maxScore = s
			}
		}
		if maxScore > 0 {
			for cid := range cands {
				cands[cid].score /= maxScore
			}
		}
	}

	// Densify: non-candidates keep a tiny negative floor so the LAP stage
	// prefers any candidate over a non-candidate.
	sim := matrix.NewDense(n, m)
	sim.Fill(-1)
	for _, c := range cands {
		sim.Set(c.i, c.j, c.score)
	}
	return sim, nil
}

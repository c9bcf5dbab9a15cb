package lrea

import (
	"context"
	"errors"

	"graphalign/internal/assign"
	"graphalign/internal/graph"
	"graphalign/internal/matrix"
)

// EigenAlign is the exact method LREA approximates (Feizi et al.): power
// iteration for the dominant eigenvector of the full alignment matrix M,
// carried out on the dense n x m similarity matrix instead of LREA's
// factored low-rank form. Each iteration costs O(n m (d_A + d_B)) versus
// LREA's O(rank * (m_A + m_B)); the survey quotes LREA aligning graphs of
// 10,000 nodes in the time EigenAlign needs for 1,000. Provided as the
// baseline for the LREA ablation.
type EigenAlign struct {
	// Iters is the number of power iterations.
	Iters int
	// OverlapWeight, BaselineWeight, ConflictPenalty: see LREA; the same
	// (sO, sN, sC) scores are used.
	OverlapWeight, BaselineWeight, ConflictPenalty float64
}

// NewEigenAlign returns the exact baseline with the same defaults as LREA.
func NewEigenAlign() *EigenAlign {
	return &EigenAlign{Iters: 40}
}

// Name implements algo.Aligner.
func (e *EigenAlign) Name() string { return "EigenAlign" }

// DefaultAssignment implements algo.Aligner (as for LREA).
func (e *EigenAlign) DefaultAssignment() assign.Method { return assign.Hungarian }

// Similarity implements algo.Aligner with dense power iteration; ctx is
// checked once per iteration.
func (e *EigenAlign) Similarity(ctx context.Context, src, dst *graph.Graph) (*matrix.Dense, error) {
	n, m := src.N(), dst.N()
	if n == 0 || m == 0 {
		return nil, errors.New("eigenalign: empty graph")
	}
	iters := e.Iters
	if iters <= 0 {
		iters = 40
	}
	sO, sN, sC := e.OverlapWeight, e.BaselineWeight, e.ConflictPenalty
	if sO == 0 && sN == 0 && sC == 0 {
		sO, sN, sC = 2, 1, 0.001
	}
	c1 := sO - 2*sC + sN
	c2 := sC - sN
	c3 := sN

	aSrc := graph.Adjacency(src)
	aDst := graph.Adjacency(dst)

	x := matrix.NewDense(n, m)
	x.Fill(1)
	x.Scale(1 / x.FrobNorm())
	for it := 0; it < iters; it++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Term 1: A X Bᵀ, computed as (B (A X)ᵀ)ᵀ. A and B are symmetric,
		// so A X Bᵀ = A X B.
		ax := aSrc.MulDense(x)           // n x m
		axb := aDst.MulDense(ax.T()).T() // n x m
		// Terms 2-4: rank-one updates from row/column sums.
		rowSum := x.RowSums()       // X 1  (length n)
		colSum := x.ColSums()       // Xᵀ 1 (length m)
		aRow := aSrc.MulVec(rowSum) // A X 1
		bCol := aDst.MulVec(colSum) // B Xᵀ 1
		total := 0.0
		for _, v := range rowSum {
			total += v
		}
		next := axb.Scale(c1)
		ones := make([]float64, m)
		for j := range ones {
			ones[j] = 1
		}
		onesN := make([]float64, n)
		for i := range onesN {
			onesN[i] = 1
		}
		next.AddOuterScaled(aRow, ones, c2)
		next.AddOuterScaled(onesN, bCol, c2)
		next.AddOuterScaled(onesN, ones, c3*total)
		nrm := next.FrobNorm()
		if nrm == 0 {
			break
		}
		next.Scale(1 / nrm)
		x = next
	}
	return x, nil
}

package linalg

import (
	"context"
	"math"

	"graphalign/internal/matrix"
)

// PolarOrthogonal returns the (partial-isometry) polar factor of a square
// matrix — the solution of the orthogonal Procrustes problem max <Q, M> —
// computed as M (MᵀM)^(-1/2) via the symmetric eigendecomposition of MᵀM.
// Directions in M's (numerical) null space map to zero rather than an
// arbitrary rotation, which is exactly what embedding-alignment callers
// want: unreliable directions carry no signal either way. It returns
// ctx.Err() once ctx is done.
func PolarOrthogonal(ctx context.Context, m *matrix.Dense) (*matrix.Dense, error) {
	n := m.Rows
	if m.Cols != n {
		panic("linalg: PolarOrthogonal requires a square matrix")
	}
	mtm := matrix.Mul(m.T(), m) // symmetric PSD n x n
	vals, vecs, err := SymEigenCtx(ctx, mtm)
	if err != nil {
		// Fall back to the Jacobi SVD polar factor, which fails in turn
		// when the error was a cancellation.
		u, _, v, err := SVDAnyCtx(ctx, m)
		if err != nil {
			return nil, err
		}
		return matrix.MulABT(u, v), nil
	}
	// (MᵀM)^(-1/2) = Q diag(1/sqrt(λ)) Qᵀ, with tiny eigenvalues dropped.
	maxVal := 0.0
	for _, v := range vals {
		if v > maxVal {
			maxVal = v
		}
	}
	cutoff := 1e-12 * maxVal
	scaled := matrix.NewDense(n, n) // Q diag(1/sqrt(λ))
	for j := 0; j < n; j++ {
		f := 0.0
		if vals[j] > cutoff && vals[j] > 0 {
			f = 1 / math.Sqrt(vals[j])
		}
		for i := 0; i < n; i++ {
			scaled.Set(i, j, vecs.At(i, j)*f)
		}
	}
	invSqrt := matrix.MulABT(scaled, vecs) // scaled Qᵀ
	return matrix.Mul(m, invSqrt), nil
}

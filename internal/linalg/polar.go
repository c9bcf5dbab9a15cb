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
	var p Polar
	return p.Orthogonal(ctx, m)
}

// Polar takes polar factors in scratch it keeps between calls, so a caller
// that factors many same-sized matrices (CONE's Procrustes steps) allocates
// the transpose, MᵀM, the eigensolver's buffers, the scaled eigenvectors,
// (MᵀM)^(-1/2) and the result once. The zero value is ready to use.
type Polar struct {
	mt, mtm, scaled, invSqrt, q *matrix.Dense
	eig                         eigenWork
}

// Orthogonal is PolarOrthogonal, bitwise, computed in p's scratch. The
// result is p's own buffer, valid until the next call.
func (p *Polar) Orthogonal(ctx context.Context, m *matrix.Dense) (*matrix.Dense, error) {
	n := m.Rows
	if m.Cols != n {
		panic("linalg: PolarOrthogonal requires a square matrix")
	}
	p.mt = square(p.mt, n)
	p.mtm = square(p.mtm, n)
	mtm := matrix.MulTo(p.mtm, m.TTo(p.mt), m) // symmetric PSD n x n
	vals, vecs, err := p.eig.decompose(ctx, mtm)
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
	p.scaled = square(p.scaled, n) // Q diag(1/sqrt(λ))
	for j := 0; j < n; j++ {
		f := 0.0
		if vals[j] > cutoff && vals[j] > 0 {
			f = 1 / math.Sqrt(vals[j])
		}
		for i := 0; i < n; i++ {
			p.scaled.Set(i, j, vecs.At(i, j)*f)
		}
	}
	p.invSqrt = square(p.invSqrt, n)
	p.q = square(p.q, n)
	invSqrt := matrix.MulABTTo(p.invSqrt, p.scaled, vecs) // scaled Qᵀ
	return matrix.MulTo(p.q, m, invSqrt), nil
}

// square returns buf when it is n x n, else a new n x n matrix.
func square(buf *matrix.Dense, n int) *matrix.Dense {
	if buf != nil && buf.Rows == n && buf.Cols == n {
		return buf
	}
	return matrix.NewDense(n, n)
}

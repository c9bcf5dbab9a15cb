package linalg

import (
	"context"
	"math/rand"

	"graphalign/internal/matrix"
)

// TruncatedSVDCtx computes an approximate rank-k SVD of a (m x n) with
// randomized subspace iteration (Halko, Martinsson, Tropp): a random
// test matrix is pushed through (A Aᵀ)^q A to capture the dominant
// subspace, and the small projected problem is solved exactly with the
// Jacobi SVD. For the strongly decaying spectra the alignment priors have,
// q = 2 already gives near-exact leading triplets at O(mnk) cost instead of
// the O(mn^2)-per-sweep full decomposition. Cancellation is checked once
// per subspace iteration; it returns ctx.Err() when interrupted.
func TruncatedSVDCtx(ctx context.Context, a *matrix.Dense, k, iters int, rng *rand.Rand) (u *matrix.Dense, s []float64, v *matrix.Dense, err error) {
	m, n := a.Rows, a.Cols
	if k > m {
		k = m
	}
	if k > n {
		k = n
	}
	if k <= 0 {
		return matrix.NewDense(m, 0), nil, matrix.NewDense(n, 0), nil
	}
	const oversample = 6
	p := k + oversample
	if p > n {
		p = n
	}
	if p > m {
		p = m
	}
	// Y = A * Omega, orthonormalized.
	omega := matrix.NewDense(n, p)
	for i := range omega.Data {
		omega.Data[i] = rng.NormFloat64()
	}
	y := matrix.Mul(a, omega) // m x p
	orthonormalizeColumns(y)
	if iters < 1 {
		iters = 1
	}
	at := a.T()
	for q := 0; q < iters; q++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, nil, err
		}
		z := matrix.Mul(at, y) // n x p
		orthonormalizeColumns(z)
		y = matrix.Mul(a, z) // m x p
		orthonormalizeColumns(y)
	}
	// Project: B = Yᵀ A (p x n); exact SVD of the small factor.
	b := matrix.Mul(y.T(), a)
	ub, sb, vb, err := SVDAnyCtx(ctx, b)
	if err != nil {
		return nil, nil, nil, err
	}
	// Lift U back: U = Y * Ub.
	uFull := matrix.Mul(y, ub)
	// Trim to k.
	u = matrix.NewDense(m, k)
	v = matrix.NewDense(n, k)
	s = make([]float64, k)
	copy(s, sb[:k])
	for i := 0; i < m; i++ {
		copy(u.Row(i), uFull.Row(i)[:k])
	}
	for i := 0; i < n; i++ {
		copy(v.Row(i), vb.Row(i)[:k])
	}
	return u, s, v, nil
}

// orthonormalizeColumns runs modified Gram–Schmidt on the columns of y in
// place; (near-)zero columns are replaced with zeros.
func orthonormalizeColumns(y *matrix.Dense) {
	m, p := y.Rows, y.Cols
	col := make([]float64, m)
	for j := 0; j < p; j++ {
		for i := 0; i < m; i++ {
			col[i] = y.At(i, j)
		}
		for prev := 0; prev < j; prev++ {
			var dot float64
			for i := 0; i < m; i++ {
				dot += col[i] * y.At(i, prev)
			}
			if dot == 0 {
				continue
			}
			for i := 0; i < m; i++ {
				col[i] -= dot * y.At(i, prev)
			}
		}
		nrm := matrix.Norm2(col)
		if nrm < 1e-12 {
			for i := 0; i < m; i++ {
				y.Set(i, j, 0)
			}
			continue
		}
		for i := 0; i < m; i++ {
			y.Set(i, j, col[i]/nrm)
		}
	}
}

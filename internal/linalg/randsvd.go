package linalg

import (
	"context"
	"math/rand"

	"graphalign/internal/matrix"
)

// Operator is a linear map A (m x n) seen only through its products with
// tall matrices, which is all the randomized SVD reads of it. A structured
// A (a prior that depends only on node degrees, say) can form both products
// without ever holding its m x n entries.
type Operator interface {
	// Dims returns A's shape (m, n).
	Dims() (m, n int)
	// Mul returns A·X (m x p) for X (n x p).
	Mul(x *matrix.Dense) *matrix.Dense
	// MulT returns Aᵀ·Y (n x p) for Y (m x p).
	MulT(y *matrix.Dense) *matrix.Dense
}

// TruncatedSVDCtx computes an approximate rank-k SVD of a (m x n) with
// randomized subspace iteration (Halko, Martinsson, Tropp): a random
// test matrix is pushed through (A Aᵀ)^q A to capture the dominant
// subspace, and the small projected problem is solved exactly with the
// Jacobi SVD. For the strongly decaying spectra the alignment priors have,
// q = 2 already gives near-exact leading triplets at the cost of 2q+2
// products of a with p = k+6 columns instead of the O(mn^2)-per-sweep full
// decomposition. Cancellation is checked once per subspace iteration; it
// returns ctx.Err() when interrupted.
func TruncatedSVDCtx(ctx context.Context, a Operator, k, iters int, rng *rand.Rand) (u *matrix.Dense, s []float64, v *matrix.Dense, err error) {
	m, n := a.Dims()
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
	y := a.Mul(omega) // m x p
	orthonormalizeColumns(y)
	if iters < 1 {
		iters = 1
	}
	for q := 0; q < iters; q++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, nil, err
		}
		z := a.MulT(y) // n x p
		orthonormalizeColumns(z)
		y = a.Mul(z) // m x p
		orthonormalizeColumns(y)
	}
	// Project: B = Yᵀ A = (Aᵀ Y)ᵀ (p x n); exact SVD of the small factor.
	// Forming it as (Aᵀ Y)ᵀ sums each entry over the same ascending rows of
	// A, skipping zero A entries where Yᵀ A skipped zero Y entries. Every
	// term kept by one and skipped by the other is an exact ±0 product of
	// finite values, and a sum started at +0 never reaches -0, so both
	// forms agree bit for bit.
	b := a.MulT(y).T()
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

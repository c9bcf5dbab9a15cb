package linalg

import (
	"context"
	"math/rand"

	"graphalign/internal/matrix"
)

// TruncatedSVDReference is the randomized SVD over a materialized matrix,
// kept as the oracle the Operator form is pinned to bit for bit: the same
// RNG draws, the same (A Aᵀ)^q A products through matrix.Mul on a and its
// transpose, and the projection formed as Yᵀ A. It is exported to this
// package's external tests only.
func TruncatedSVDReference(ctx context.Context, a *matrix.Dense, k, iters int, rng *rand.Rand) (u *matrix.Dense, s []float64, v *matrix.Dense, err error) {
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
	omega := matrix.NewDense(n, p)
	for i := range omega.Data {
		omega.Data[i] = rng.NormFloat64()
	}
	y := matrix.Mul(a, omega)
	orthonormalizeColumns(y)
	if iters < 1 {
		iters = 1
	}
	at := a.T()
	for q := 0; q < iters; q++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, nil, err
		}
		z := matrix.Mul(at, y)
		orthonormalizeColumns(z)
		y = matrix.Mul(a, z)
		orthonormalizeColumns(y)
	}
	b := matrix.Mul(y.T(), a)
	ub, sb, vb, err := SVDAnyCtx(ctx, b)
	if err != nil {
		return nil, nil, nil, err
	}
	uFull := matrix.Mul(y, ub)
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

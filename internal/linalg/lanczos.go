package linalg

import (
	"context"
	"fmt"
	"math/rand"

	"graphalign/internal/matrix"
)

// SymOp is a symmetric linear operator y = A x given as a function that
// fills out with A*x. It lets Lanczos run on CSR matrices, shifted
// Laplacians, etc. without materializing anything dense.
type SymOp struct {
	N     int
	Apply func(out, x []float64)
}

// CSROp wraps a square CSR matrix as a SymOp (the matrix is assumed to be
// symmetric; this is not verified).
func CSROp(m *matrix.CSR) SymOp {
	if m.NumRows != m.NumCols {
		panic("linalg: CSROp requires a square matrix")
	}
	return SymOp{N: m.NumRows, Apply: m.MulVecTo}
}

// LanczosSmallestCtx computes the k algebraically smallest eigenpairs of
// the symmetric operator op, returning eigenvalues ascending and
// eigenvectors as columns of an N x k dense matrix. It runs Lanczos with
// full reorthogonalization for min(maxIter, N) steps and diagonalizes the
// resulting tridiagonal matrix with SymEigenCtx. Cancellation is checked
// once per Lanczos step; it returns ctx.Err() when interrupted.
//
// Used for the normalized Laplacian, whose small eigenvalues carry the
// global structure GRASP needs.
func LanczosSmallestCtx(ctx context.Context, op SymOp, k, maxIter int, rng *rand.Rand) (vals []float64, vecs *matrix.Dense, err error) {
	n := op.N
	if k <= 0 || k > n {
		return nil, nil, fmt.Errorf("linalg: lanczos k=%d out of range (n=%d)", k, n)
	}
	steps := maxIter
	if steps > n {
		steps = n
	}
	if steps < k {
		steps = k
	}
	// Lanczos basis vectors (full reorthogonalization keeps them usable).
	q := make([][]float64, 0, steps)
	alpha := make([]float64, 0, steps)
	beta := make([]float64, 0, steps) // beta[j] links q[j] and q[j+1]

	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	matrix.Normalize(v)
	w := make([]float64, n)

	for j := 0; j < steps; j++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		qj := append([]float64(nil), v...)
		q = append(q, qj)
		op.Apply(w, qj)
		if j > 0 {
			matrix.AxpyVec(w, q[j-1], -beta[j-1])
		}
		a := matrix.Dot(w, qj)
		alpha = append(alpha, a)
		matrix.AxpyVec(w, qj, -a)
		// Full reorthogonalization against all previous basis vectors.
		for _, qi := range q {
			matrix.AxpyVec(w, qi, -matrix.Dot(w, qi))
		}
		b := matrix.Norm2(w)
		if b < 1e-12 {
			// Invariant subspace found; restart with a random orthogonal vector
			// or stop if we already span enough.
			if len(q) >= k {
				break
			}
			for i := range w {
				w[i] = rng.NormFloat64()
			}
			for _, qi := range q {
				matrix.AxpyVec(w, qi, -matrix.Dot(w, qi))
			}
			b = matrix.Norm2(w)
			if b < 1e-12 {
				break
			}
		}
		if j < steps-1 {
			beta = append(beta, b)
			for i := range v {
				v[i] = w[i] / b
			}
		}
	}

	m := len(q)
	if m < k {
		k = m
	}
	// Diagonalize the m x m tridiagonal matrix T.
	t := matrix.NewDense(m, m)
	for i := 0; i < m; i++ {
		t.Set(i, i, alpha[i])
		if i+1 < m && i < len(beta) {
			t.Set(i, i+1, beta[i])
			t.Set(i+1, i, beta[i])
		}
	}
	tv, tz, err := SymEigenCtx(ctx, t)
	if err != nil {
		return nil, nil, err
	}
	// The k smallest eigenpairs of T give the Ritz pairs.
	vals = make([]float64, k)
	vecs = matrix.NewDense(n, k)
	for c := 0; c < k; c++ {
		vals[c] = tv[c]
		// Ritz vector: sum_j tz[j][c] * q[j]
		col := make([]float64, n)
		for j := 0; j < m; j++ {
			matrix.AxpyVec(col, q[j], tz.At(j, c))
		}
		matrix.Normalize(col)
		for i := 0; i < n; i++ {
			vecs.Set(i, c, col[i])
		}
	}
	return vals, vecs, nil
}

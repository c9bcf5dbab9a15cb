package linalg

import (
	"context"
	"math"
	"sort"

	"graphalign/internal/matrix"
)

// SVDCtx computes the thin singular value decomposition a = U diag(s) Vᵀ
// of an m x n matrix with m >= 0, n >= 0, using one-sided Jacobi rotations
// on the columns. Singular values are returned in descending order; U is
// m x n and V is n x n (thin form; if m < n the caller should transpose
// first — SVDAnyCtx handles that). Cancellation is checked once per Jacobi
// sweep; it returns ctx.Err() and nil factors when interrupted.
func SVDCtx(ctx context.Context, a *matrix.Dense) (u *matrix.Dense, s []float64, v *matrix.Dense, err error) {
	ut, s, vt, err := jacobiT(ctx, a.T())
	if err != nil {
		return nil, nil, nil, err
	}
	return transposed(ut), s, transposed(vt), nil
}

// jacobiT is the one-sided Jacobi SVD of a = utᵀ, run on the transposed
// factors so that the columns the sweeps pair up are contiguous rows. It
// overwrites ut (n x m) with Uᵀ and returns it with the descending singular
// values and Vᵀ (n x n). Every sum and rotation runs in the same index order
// as the column form, so the factors are bitwise those of the textbook
// column sweep.
func jacobiT(ctx context.Context, ut *matrix.Dense) (*matrix.Dense, []float64, *matrix.Dense, error) {
	n := ut.Rows
	vt := matrix.NewDense(n, n)
	for i := 0; i < n; i++ {
		vt.Set(i, i, 1)
	}
	// One-sided Jacobi: repeatedly orthogonalize pairs of columns of U
	// (rows of ut), accumulating rotations in V (rows of vt).
	const maxSweeps = 60
	eps := 1e-14
	for sweep := 0; sweep < maxSweeps; sweep++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, nil, err
		}
		off := 0.0
		for p := 0; p < n-1; p++ {
			up := ut.Row(p)
			for q := p + 1; q < n; q++ {
				// Re-slicing to len(up) lets the compiler drop the bounds
				// checks on uq in the loops below.
				uq := ut.Row(q)[:len(up)]
				var alpha, beta, gamma float64
				for i, x := range up {
					y := uq[i]
					alpha += x * x
					beta += y * y
					gamma += x * y
				}
				if math.Abs(gamma) <= eps*math.Sqrt(alpha*beta) {
					continue
				}
				off += gamma * gamma
				zeta := (beta - alpha) / (2 * gamma)
				t := math.Copysign(1, zeta) / (math.Abs(zeta) + math.Sqrt(1+zeta*zeta))
				c := 1 / math.Sqrt(1+t*t)
				sn := c * t
				for i, x := range up {
					y := uq[i]
					up[i] = c*x - sn*y
					uq[i] = sn*x + c*y
				}
				vp := vt.Row(p)
				vq := vt.Row(q)[:len(vp)]
				for i, x := range vp {
					y := vq[i]
					vp[i] = c*x - sn*y
					vq[i] = sn*x + c*y
				}
			}
		}
		if off < eps {
			break
		}
	}
	// Column norms of U are the singular values.
	s := make([]float64, n)
	for j := 0; j < n; j++ {
		row := ut.Row(j)
		var nrm float64
		for _, x := range row {
			nrm += x * x
		}
		nrm = math.Sqrt(nrm)
		s[j] = nrm
		if nrm > 0 {
			for i, x := range row {
				row[i] = x / nrm
			}
		}
	}
	// Sort descending by singular value (selection sort on columns).
	for j := 0; j < n; j++ {
		best := j
		for k := j + 1; k < n; k++ {
			if s[k] > s[best] {
				best = k
			}
		}
		if best != j {
			s[j], s[best] = s[best], s[j]
			swapRows(ut, j, best)
			swapRows(vt, j, best)
		}
	}
	return ut, s, vt, nil
}

// transposed returns the transpose of m, reusing m's storage when it is
// square.
func transposed(m *matrix.Dense) *matrix.Dense {
	if m.Rows != m.Cols {
		return m.T()
	}
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			m.Data[i*m.Cols+j], m.Data[j*m.Cols+i] = m.Data[j*m.Cols+i], m.Data[i*m.Cols+j]
		}
	}
	return m
}

func swapRows(m *matrix.Dense, a, b int) {
	ra, rb := m.Row(a), m.Row(b)
	for i := range ra {
		ra[i], rb[i] = rb[i], ra[i]
	}
}

// SVDAnyCtx computes the thin SVD for any shape, transposing internally
// when m < n so the one-sided Jacobi always works on tall matrices. U is
// m x r, V is n x r with r = min(m, n). Cancellation is as for SVDCtx.
func SVDAnyCtx(ctx context.Context, a *matrix.Dense) (u *matrix.Dense, s []float64, v *matrix.Dense, err error) {
	if a.Rows >= a.Cols {
		return SVDCtx(ctx, a)
	}
	// The Jacobi sweeps on aᵀ = U' s V'ᵀ work on (aᵀ)ᵀ = a itself and
	// return U'ᵀ and V'ᵀ; a = V' s U'ᵀ.
	upT, s, vpT, err := jacobiT(ctx, a.Clone())
	if err != nil {
		return nil, nil, nil, err
	}
	return transposed(vpT), s, transposed(upT), nil
}

// TopKSVDSymCtx returns the top-k singular triplets of a symmetric matrix
// by way of its eigendecomposition (s_i = |λ_i|, u_i = q_i, v_i = sign(λ_i)
// q_i). Far cheaper than Jacobi SVD for the dense symmetric proximity
// matrices CONE factorizes. Cancellation is inherited from the underlying
// eigendecomposition.
func TopKSVDSymCtx(ctx context.Context, a *matrix.Dense, k int) (u *matrix.Dense, s []float64, v *matrix.Dense, err error) {
	vals, vecs, err := SymEigenCtx(ctx, a)
	if err != nil {
		return nil, nil, nil, err
	}
	n := len(vals)
	if k > n {
		k = n
	}
	// Order indices by |eigenvalue| descending.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		return math.Abs(vals[idx[a]]) > math.Abs(vals[idx[b]])
	})
	u = matrix.NewDense(n, k)
	v = matrix.NewDense(n, k)
	s = make([]float64, k)
	for c := 0; c < k; c++ {
		j := idx[c]
		s[c] = math.Abs(vals[j])
		sign := 1.0
		if vals[j] < 0 {
			sign = -1
		}
		for i := 0; i < n; i++ {
			q := vecs.At(i, j)
			u.Set(i, c, q)
			v.Set(i, c, sign*q)
		}
	}
	return u, s, v, nil
}

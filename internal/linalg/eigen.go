// Package linalg implements the numerical linear algebra the alignment
// algorithms need: full symmetric eigendecomposition, Lanczos extremal
// eigenpairs for sparse operators, one-sided Jacobi and randomized SVD,
// pseudo-inverse, and the polar factor. Every kernel takes a context and
// reports its cancellation. Everything is written against float64 slices
// and the matrix package; no external BLAS/LAPACK.
package linalg

import (
	"context"
	"fmt"
	"math"
	"sort"

	"graphalign/internal/matrix"
)

// SymEigenCtx computes the full eigendecomposition of the symmetric matrix
// a (only its lower triangle is read). It returns the eigenvalues in ascending
// order and the matrix of corresponding eigenvectors stored column-wise:
// vecs.At(i, k) is component i of eigenvector k.
//
// The implementation is the classic Householder tridiagonalization followed
// by the implicit-shift QL algorithm (Numerical Recipes tred2/tqli).
// Cancellation is checked once per eigenvalue in the QL phase; it returns
// ctx.Err() when interrupted.
func SymEigenCtx(ctx context.Context, a *matrix.Dense) (vals []float64, vecs *matrix.Dense, err error) {
	if a.Rows != a.Cols {
		return nil, nil, fmt.Errorf("linalg: SymEigenCtx requires square matrix, got %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	z := a.Clone() // will be overwritten with eigenvectors
	d := make([]float64, n)
	e := make([]float64, n)
	tred2(z, d, e)
	if err := tqli(ctx, d, e, z); err != nil {
		return nil, nil, err
	}
	// Sort ascending by eigenvalue, permuting columns of z.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return d[idx[i]] < d[idx[j]] })
	vals = make([]float64, n)
	vecs = matrix.NewDense(n, n)
	for k, src := range idx {
		vals[k] = d[src]
		for i := 0; i < n; i++ {
			vecs.Set(i, k, z.At(i, src))
		}
	}
	return vals, vecs, nil
}

// TruncateEigenpairs copies the k leading eigenpairs out of a full
// decomposition (vals ascending, vecs column-wise, as SymEigenCtx returns
// them) into freshly allocated storage, so a truncated spectrum can be
// retained — e.g. in the artifact cache — without pinning the full n x n
// eigenvector matrix. k is clamped to len(vals).
func TruncateEigenpairs(vals []float64, vecs *matrix.Dense, k int) ([]float64, *matrix.Dense) {
	if k > len(vals) {
		k = len(vals)
	}
	if k < 0 {
		k = 0
	}
	outV := make([]float64, k)
	copy(outV, vals[:k])
	outM := matrix.NewDense(vecs.Rows, k)
	for i := 0; i < vecs.Rows; i++ {
		copy(outM.Row(i), vecs.Row(i)[:k])
	}
	return outV, outM
}

// tred2 reduces the symmetric matrix stored in z to tridiagonal form by
// Householder transformations, accumulating the orthogonal transform in z.
// On exit, d holds the diagonal and e the subdiagonal (e[0] unused).
func tred2(z *matrix.Dense, d, e []float64) {
	n := z.Rows
	for i := n - 1; i >= 1; i-- {
		l := i - 1
		h := 0.0
		scale := 0.0
		if l > 0 {
			for k := 0; k <= l; k++ {
				scale += math.Abs(z.At(i, k))
			}
			if scale == 0 {
				e[i] = z.At(i, l)
			} else {
				for k := 0; k <= l; k++ {
					v := z.At(i, k) / scale
					z.Set(i, k, v)
					h += v * v
				}
				f := z.At(i, l)
				g := math.Sqrt(h)
				if f >= 0 {
					g = -g
				}
				e[i] = scale * g
				h -= f * g
				z.Set(i, l, f-g)
				f = 0.0
				for j := 0; j <= l; j++ {
					z.Set(j, i, z.At(i, j)/h)
					g = 0.0
					for k := 0; k <= j; k++ {
						g += z.At(j, k) * z.At(i, k)
					}
					for k := j + 1; k <= l; k++ {
						g += z.At(k, j) * z.At(i, k)
					}
					e[j] = g / h
					f += e[j] * z.At(i, j)
				}
				hh := f / (h + h)
				for j := 0; j <= l; j++ {
					f = z.At(i, j)
					g = e[j] - hh*f
					e[j] = g
					for k := 0; k <= j; k++ {
						z.Add(j, k, -(f*e[k] + g*z.At(i, k)))
					}
				}
			}
		} else {
			e[i] = z.At(i, l)
		}
		d[i] = h
	}
	d[0] = 0.0
	e[0] = 0.0
	for i := 0; i < n; i++ {
		l := i - 1
		if d[i] != 0 {
			for j := 0; j <= l; j++ {
				g := 0.0
				for k := 0; k <= l; k++ {
					g += z.At(i, k) * z.At(k, j)
				}
				for k := 0; k <= l; k++ {
					z.Add(k, j, -g*z.At(k, i))
				}
			}
		}
		d[i] = z.At(i, i)
		z.Set(i, i, 1.0)
		for j := 0; j <= l; j++ {
			z.Set(j, i, 0.0)
			z.Set(i, j, 0.0)
		}
	}
}

// tqli diagonalizes the tridiagonal matrix (d, e) with the implicit-shift QL
// algorithm, accumulating rotations into z columns. ctx is checked once per
// eigenvalue — each QL deflation is O(n²), so the check adds no measurable
// cost while keeping cancellation latency bounded.
func tqli(ctx context.Context, d, e []float64, z *matrix.Dense) error {
	n := len(d)
	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0.0
	for l := 0; l < n; l++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		iter := 0
		for {
			var m int
			for m = l; m < n-1; m++ {
				dd := math.Abs(d[m]) + math.Abs(d[m+1])
				if math.Abs(e[m])+dd == dd {
					break
				}
			}
			if m == l {
				break
			}
			iter++
			if iter == 50 {
				return fmt.Errorf("linalg: tqli failed to converge at eigenvalue %d", l)
			}
			g := (d[l+1] - d[l]) / (2.0 * e[l])
			r := math.Hypot(g, 1.0)
			sg := r
			if g < 0 {
				sg = -r
			}
			g = d[m] - d[l] + e[l]/(g+sg)
			s, c := 1.0, 1.0
			p := 0.0
			for i := m - 1; i >= l; i-- {
				f := s * e[i]
				b := c * e[i]
				r = math.Hypot(f, g)
				e[i+1] = r
				if r == 0 {
					d[i+1] -= p
					e[m] = 0.0
					break
				}
				s = f / r
				c = g / r
				g = d[i+1] - p
				r = (d[i]-g)*s + 2.0*c*b
				p = s * r
				d[i+1] = g + p
				g = c*r - b
				for k := 0; k < n; k++ {
					f = z.At(k, i+1)
					z.Set(k, i+1, s*z.At(k, i)+c*f)
					z.Set(k, i, c*z.At(k, i)-s*f)
				}
			}
			if r == 0 && m-1 >= l {
				continue
			}
			d[l] -= p
			e[l] = g
			e[m] = 0.0
		}
	}
	return nil
}

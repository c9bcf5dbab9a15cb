// Package linalg implements the numerical linear algebra the alignment
// algorithms need: full symmetric eigendecomposition, Lanczos extremal
// eigenpairs for sparse operators, one-sided Jacobi and randomized SVD,
// and the polar factor. Every kernel takes a context and
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
// vecs.At(i, k) is component i of eigenvector k. A 0x0 input has no
// eigenpairs and yields empty results.
//
// The implementation is the classic Householder tridiagonalization followed
// by the implicit-shift QL algorithm (Numerical Recipes tred2/tqli), both
// walking contiguous rows: tqli rotates the rows of the transposed
// transform, and each sum keeps the textbook's summation order, so the
// results are bitwise those of the column-strided original.
// Cancellation is checked once per eigenvalue in the QL phase; it returns
// ctx.Err() when interrupted.
func SymEigenCtx(ctx context.Context, a *matrix.Dense) (vals []float64, vecs *matrix.Dense, err error) {
	var w eigenWork
	return w.decompose(ctx, a)
}

// eigenWork holds SymEigenCtx's buffers so that a caller decomposing many
// same-sized matrices (Polar) allocates them once.
type eigenWork struct {
	z, vecs    *matrix.Dense
	d, e, vals []float64
	idx        []int
}

// decompose is SymEigenCtx in w's buffers: vals and vecs are w's own,
// valid until the next call.
func (w *eigenWork) decompose(ctx context.Context, a *matrix.Dense) (vals []float64, vecs *matrix.Dense, err error) {
	if a.Rows != a.Cols {
		return nil, nil, fmt.Errorf("linalg: SymEigenCtx requires square matrix, got %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	if n == 0 {
		return []float64{}, matrix.NewDense(0, 0), nil
	}
	if w.z == nil || w.z.Rows != n {
		w.z, w.vecs = matrix.NewDense(n, n), matrix.NewDense(n, n)
		w.d, w.e, w.vals = make([]float64, n), make([]float64, n), make([]float64, n)
		w.idx = make([]int, n)
	}
	z, d, e := w.z, w.d, w.e
	copy(z.Data, a.Data) // will be overwritten with eigenvectors
	tred2(z, d, e)
	transposeInPlace(z) // row k is now column k of the transform
	if err := tqli(ctx, d, e, z); err != nil {
		return nil, nil, err
	}
	// Sort ascending by eigenvalue; row src of z becomes column k of vecs.
	idx := w.idx
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return d[idx[i]] < d[idx[j]] })
	vals, vecs = w.vals, w.vecs
	for k, src := range idx {
		vals[k] = d[src]
		for i, v := range z.Row(src) {
			vecs.Data[i*n+k] = v
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
//
// The two sums that Numerical Recipes forms down columns are built here by
// streaming rows; each adds the same terms in the same order.
func tred2(z *matrix.Dense, d, e []float64) {
	n := z.Rows
	g := make([]float64, n)
	for i := n - 1; i >= 1; i-- {
		l := i - 1
		zi := z.Row(i)[:i]
		h := 0.0
		scale := 0.0
		if l > 0 {
			for _, v := range zi {
				scale += math.Abs(v)
			}
			if scale == 0 {
				e[i] = zi[l]
			} else {
				for k, v := range zi {
					v /= scale
					zi[k] = v
					h += v * v
				}
				f := zi[l]
				gi := math.Sqrt(h)
				if f >= 0 {
					gi = -gi
				}
				e[i] = scale * gi
				h -= f * gi
				zi[l] = f - gi
				// g[j] = sum_{k<=j} z[j][k] z[i][k] + sum_{j<k<=l} z[k][j] z[i][k],
				// k ascending. Row k closes the first sum of g[k], then adds
				// the k-th term of the second sum of every g[j], j < k.
				for k := range zi {
					zk := z.Row(k)[:k+1]
					var s float64
					for t, v := range zk {
						s += v * zi[t]
					}
					matrix.AxpyVec(g[:k], zk[:k], zi[k])
					g[k] = s
				}
				f = 0.0
				for j, v := range zi {
					z.Data[j*n+i] = v / h
					e[j] = g[j] / h
					f += e[j] * v
				}
				hh := f / (h + h)
				for j, f := range zi {
					gj := e[j] - hh*f
					e[j] = gj
					matrix.SubMul2Vec(z.Row(j)[:j+1], f, e[:j+1], gj, zi[:j+1])
				}
			}
		} else {
			e[i] = zi[l]
		}
		d[i] = h
	}
	d[0] = 0.0
	e[0] = 0.0
	for i := 0; i < n; i++ {
		zi := z.Row(i)
		if d[i] != 0 {
			// g[j] = sum_k z[i][k] z[k][j], k ascending. The updates write
			// neither row i nor column i, so every g[j] can be formed before
			// the first of them, and both passes stream rows.
			gs := g[:i]
			clear(gs)
			for k, zik := range zi[:i] {
				matrix.AxpyVec(gs, z.Row(k)[:i], zik)
			}
			for k := 0; k < i; k++ {
				matrix.SubScaledVec(z.Row(k)[:i], gs, z.Data[k*n+i])
			}
		}
		d[i] = zi[i]
		zi[i] = 1.0
		for j := 0; j < i; j++ {
			z.Data[j*n+i] = 0.0
			zi[j] = 0.0
		}
	}
}

// transposeInPlace transposes the square matrix z.
func transposeInPlace(z *matrix.Dense) {
	n := z.Rows
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			z.Data[i*n+j], z.Data[j*n+i] = z.Data[j*n+i], z.Data[i*n+j]
		}
	}
}

// tqli diagonalizes the tridiagonal matrix (d, e) with the implicit-shift QL
// algorithm, accumulating rotations into z, whose row k is column k of the
// transform tred2 produced: each rotation updates two contiguous rows. ctx
// is checked once per eigenvalue — each QL deflation is O(n²), so the check
// adds no measurable cost while keeping cancellation latency bounded.
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
				// A subnormal e[m] is deflated too: on a rank-deficient
				// matrix the null-space block decays into subnormals,
				// where d[m] and d[m+1] are as tiny as e[m] and the
				// relative test can never pass.
				dd := math.Abs(d[m]) + math.Abs(d[m+1])
				if math.Abs(e[m])+dd == dd || math.Abs(e[m]) < 0x1p-1022 {
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
				matrix.RotateVec(z.Row(i), z.Row(i+1), c, s)
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

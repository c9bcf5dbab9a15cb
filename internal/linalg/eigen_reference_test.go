package linalg

import (
	"context"
	"fmt"
	"math"
	"sort"
	"testing"

	"graphalign/internal/matrix"
)

// symEigenReference is SymEigenCtx as it stood before tred2 and tqli were
// rewritten on contiguous rows; SymEigenCtx must match it bit for bit.
func symEigenReference(ctx context.Context, a *matrix.Dense) ([]float64, *matrix.Dense, error) {
	n := a.Rows
	z := a.Clone()
	d := make([]float64, n)
	e := make([]float64, n)
	tred2Reference(z, d, e)
	if err := tqliReference(ctx, d, e, z); err != nil {
		return nil, nil, err
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return d[idx[i]] < d[idx[j]] })
	vals := make([]float64, n)
	vecs := matrix.NewDense(n, n)
	for k, src := range idx {
		vals[k] = d[src]
		for i := 0; i < n; i++ {
			vecs.Set(i, k, z.At(i, src))
		}
	}
	return vals, vecs, nil
}

// tred2Reference is the textbook tred2 (Numerical Recipes), walking the
// row-major matrix through At/Set/Add and down columns where the book does.
// tred2 must reproduce it bit for bit; it is kept here as the oracle.
func tred2Reference(z *matrix.Dense, d, e []float64) {
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

// tqliReference is the textbook tqli, rotating columns of z through
// At/Set. It is the oracle for tqli, which rotates rows of the transpose.
func tqliReference(ctx context.Context, d, e []float64, z *matrix.Dense) error {
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

// eigenOracleCases are the symmetric inputs the rewritten eigensolver is
// pinned on: random matrices at n = 1, 2, 3, 5, 66 and 201 (201 leaves a
// remainder for any blocking), a zero last row and column (tred2's
// scale == 0 branch), the zero matrix, and a rank-deficient Gram matrix of
// the shape PolarOrthogonal decomposes.
func eigenOracleCases() map[string]*matrix.Dense {
	cases := map[string]*matrix.Dense{}
	for _, n := range []int{1, 2, 3, 5, 66, 201} {
		cases[fmt.Sprintf("random n=%d", n)] = randomSymmetric(n, int64(n))
	}
	z := randomSymmetric(7, 7)
	for k := 0; k < 6; k++ {
		z.Set(6, k, 0)
		z.Set(k, 6, 0)
	}
	cases["zero last row n=7"] = z
	cases["zero n=5"] = matrix.NewDense(5, 5)
	m := randomMat(66, 20, 3)
	cases["gram 66 rank 20"] = matrix.Mul(m, m.T())
	return cases
}

// TestSymEigenMatchesReferenceBitwise pins the row-contiguous tred2 and the
// transposed tqli to the At/Set reference: the tridiagonal form, the
// eigenvalues and the eigenvectors must be bitwise identical.
func TestSymEigenMatchesReferenceBitwise(t *testing.T) {
	ctx := context.Background()
	for name, a := range eigenOracleCases() {
		n := a.Rows
		z, rz := a.Clone(), a.Clone()
		d, e := make([]float64, n), make([]float64, n)
		rd, re := make([]float64, n), make([]float64, n)
		tred2(z, d, e)
		tred2Reference(rz, rd, re)
		sameBits(t, name+" tred2 z", z, rz)
		sameSliceBits(t, name+" tred2 d", d, rd)
		sameSliceBits(t, name+" tred2 e", e, re)

		orig := a.Clone()
		vals, vecs, err := SymEigenCtx(ctx, a)
		if err != nil {
			t.Fatal(err)
		}
		rvals, rvecs, err := symEigenReference(ctx, a)
		if err != nil {
			t.Fatal(err)
		}
		sameSliceBits(t, name+" vals", vals, rvals)
		sameBits(t, name+" vecs", vecs, rvecs)
		sameBits(t, name+" input", a, orig)
	}
}

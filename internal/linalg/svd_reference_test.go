package linalg

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"graphalign/internal/matrix"
)

// svdReference is the textbook one-sided Jacobi SVD that walks the
// row-major matrix column by column through At/Set. SVDCtx must reproduce
// it bit for bit; it is kept here as the oracle.
func svdReference(ctx context.Context, a *matrix.Dense) (u *matrix.Dense, s []float64, v *matrix.Dense, err error) {
	m, n := a.Rows, a.Cols
	u = a.Clone()
	v = matrix.NewDense(n, n)
	for i := 0; i < n; i++ {
		v.Set(i, i, 1)
	}
	// One-sided Jacobi: repeatedly orthogonalize pairs of columns of u,
	// accumulating rotations in v.
	const maxSweeps = 60
	eps := 1e-14
	for sweep := 0; sweep < maxSweeps; sweep++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, nil, err
		}
		off := 0.0
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				var alpha, beta, gamma float64
				for i := 0; i < m; i++ {
					up := u.At(i, p)
					uq := u.At(i, q)
					alpha += up * up
					beta += uq * uq
					gamma += up * uq
				}
				if math.Abs(gamma) <= eps*math.Sqrt(alpha*beta) {
					continue
				}
				off += gamma * gamma
				zeta := (beta - alpha) / (2 * gamma)
				t := math.Copysign(1, zeta) / (math.Abs(zeta) + math.Sqrt(1+zeta*zeta))
				c := 1 / math.Sqrt(1+t*t)
				sn := c * t
				for i := 0; i < m; i++ {
					up := u.At(i, p)
					uq := u.At(i, q)
					u.Set(i, p, c*up-sn*uq)
					u.Set(i, q, sn*up+c*uq)
				}
				for i := 0; i < n; i++ {
					vp := v.At(i, p)
					vq := v.At(i, q)
					v.Set(i, p, c*vp-sn*vq)
					v.Set(i, q, sn*vp+c*vq)
				}
			}
		}
		if off < eps {
			break
		}
	}
	// Column norms of u are the singular values.
	s = make([]float64, n)
	for j := 0; j < n; j++ {
		var nrm float64
		for i := 0; i < m; i++ {
			nrm += u.At(i, j) * u.At(i, j)
		}
		nrm = math.Sqrt(nrm)
		s[j] = nrm
		if nrm > 0 {
			for i := 0; i < m; i++ {
				u.Set(i, j, u.At(i, j)/nrm)
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
			for i := 0; i < m; i++ {
				uj, ub := u.At(i, j), u.At(i, best)
				u.Set(i, j, ub)
				u.Set(i, best, uj)
			}
			for i := 0; i < n; i++ {
				vj, vb := v.At(i, j), v.At(i, best)
				v.Set(i, j, vb)
				v.Set(i, best, vj)
			}
		}
	}
	return u, s, v, nil
}

// svdAnyReference is SVDAnyCtx over svdReference, transposing wide inputs.
func svdAnyReference(ctx context.Context, a *matrix.Dense) (u *matrix.Dense, s []float64, v *matrix.Dense, err error) {
	if a.Rows >= a.Cols {
		return svdReference(ctx, a)
	}
	vt, s, ut, err := svdReference(ctx, a.T())
	if err != nil {
		return nil, nil, nil, err
	}
	// a = (aᵀ)ᵀ = (vt s utᵀ)ᵀ = ut s vtᵀ
	return ut, s, vt, nil
}

// svdOracleCases are the shapes and conditionings the bitwise tests cover.
func svdOracleCases() map[string]*matrix.Dense {
	cases := map[string]*matrix.Dense{
		"1x1":    matrix.DenseFromRows([][]float64{{-3}}),
		"1x1 0":  matrix.NewDense(1, 1),
		"0x3":    matrix.NewDense(0, 3),
		"3x0":    matrix.NewDense(3, 0),
		"7x1":    randomMat(7, 1, 11),
		"1x7":    randomMat(1, 7, 12),
		"square": randomMat(6, 6, 13),
		"tall":   randomMat(9, 4, 14),
		"wide":   randomMat(3, 8, 15),
	}
	zc := randomMat(6, 4, 16)
	for i := 0; i < zc.Rows; i++ {
		zc.Set(i, 2, 0)
	}
	cases["zero column"] = zc
	cases["zero column wide"] = zc.T()
	// Rank 2 through an 8x2 by 2x6 product.
	cases["rank-deficient"] = matrix.Mul(randomMat(8, 2, 17), randomMat(2, 6, 18))
	cases["rbf landmarks"] = rbfLandmarks(101, 19)
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 24; i++ {
		m, n := 1+rng.Intn(12), 1+rng.Intn(12)
		cases[fmt.Sprintf("random %d %dx%d", i, m, n)] = randomMat(m, n, int64(100+i))
	}
	return cases
}

// rbfLandmarks is a REGAL-style landmark matrix exp(-||x_a - x_b||²) over
// p points with low-dimensional integer-valued features, many of them
// repeated, so that the matrix is ill-conditioned and rank-deficient.
func rbfLandmarks(p int, seed int64) *matrix.Dense {
	rng := rand.New(rand.NewSource(seed))
	const dims = 4
	x := make([][dims]float64, p)
	for i := range x {
		for d := range x[i] {
			x[i][d] = float64(rng.Intn(3))
		}
	}
	w := matrix.NewDense(p, p)
	for a := range x {
		for b := range x {
			var d2 float64
			for d := 0; d < dims; d++ {
				diff := x[a][d] - x[b][d]
				d2 += diff * diff
			}
			w.Set(a, b, math.Exp(-d2))
		}
	}
	return w
}

func sameBits(t *testing.T, what string, got, want *matrix.Dense) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, reference %dx%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	sameSliceBits(t, what, got.Data, want.Data)
}

func sameSliceBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, reference %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, reference %v", what, i, got[i], want[i])
		}
	}
}

// TestSVDMatchesReferenceBitwise pins the column-contiguous Jacobi sweeps
// to the At/Set reference: U, s and V of SVDCtx and SVDAnyCtx must be
// bitwise identical on every shape.
func TestSVDMatchesReferenceBitwise(t *testing.T) {
	ctx := context.Background()
	for name, a := range svdOracleCases() {
		orig := a.Clone()
		if a.Rows >= a.Cols {
			u, s, v, err := SVDCtx(ctx, a)
			if err != nil {
				t.Fatal(err)
			}
			ru, rs, rv, _ := svdReference(ctx, a)
			sameBits(t, name+" SVD u", u, ru)
			sameSliceBits(t, name+" SVD s", s, rs)
			sameBits(t, name+" SVD v", v, rv)
		}
		u, s, v, err := SVDAnyCtx(ctx, a)
		if err != nil {
			t.Fatal(err)
		}
		ru, rs, rv, _ := svdAnyReference(ctx, a)
		sameBits(t, name+" SVDAny u", u, ru)
		sameSliceBits(t, name+" SVDAny s", s, rs)
		sameBits(t, name+" SVDAny v", v, rv)
		sameBits(t, name+" input", a, orig)
	}
}

// TestSVDCancelled checks that a cancelled context stops the sweeps.
func TestSVDCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, a := range []*matrix.Dense{randomMat(5, 3, 1), randomMat(3, 5, 2)} {
		if _, _, _, err := SVDAnyCtx(ctx, a); err == nil {
			t.Errorf("%dx%d: want context error", a.Rows, a.Cols)
		}
	}
}

// BenchmarkSVD times the Jacobi SVD on a REGAL-sized landmark matrix
// (p = 101).
func BenchmarkSVD(b *testing.B) {
	w := rbfLandmarks(101, 1)
	ctx := context.Background()
	b.ReportAllocs()
	for b.Loop() {
		if _, _, _, err := SVDAnyCtx(ctx, w); err != nil {
			b.Fatal(err)
		}
	}
}

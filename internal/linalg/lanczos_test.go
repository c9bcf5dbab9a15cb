package linalg

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"graphalign/internal/matrix"
)

func denseOp(a *matrix.Dense) SymOp {
	return SymOp{N: a.Rows, Apply: func(out, x []float64) {
		copy(out, a.MulVec(x))
	}}
}

func TestLanczosSmallestMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randomSymmetric(30, 7)
	vals, vecs, err := LanczosSmallestCtx(context.Background(), denseOp(a), 4, 30, rng)
	if err != nil {
		t.Fatal(err)
	}
	dv, _, err := SymEigenCtx(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if math.Abs(vals[i]-dv[i]) > 1e-6 {
			t.Errorf("lanczos val[%d] = %v, dense %v", i, vals[i], dv[i])
		}
	}
	if r := residual(a, vals, vecs); r > 1e-6 {
		t.Errorf("residual %v", r)
	}
}

func TestLanczosOnCSR(t *testing.T) {
	// Normalized-Laplacian-like matrix: path graph Laplacian has smallest
	// eigenvalue 0.
	n := 20
	var rI, cI []int
	var vals []float64
	for i := 0; i < n; i++ {
		rI = append(rI, i)
		cI = append(cI, i)
		vals = append(vals, 1)
		deg := func(k int) float64 {
			if k == 0 || k == n-1 {
				return 1
			}
			return 2
		}
		for _, j := range []int{i - 1, i + 1} {
			if j < 0 || j >= n {
				continue
			}
			rI = append(rI, i)
			cI = append(cI, j)
			vals = append(vals, -1/math.Sqrt(deg(i)*deg(j)))
		}
	}
	m, err := matrix.NewCSR(n, n, rI, cI, vals)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	lv, _, err := LanczosSmallestCtx(context.Background(), CSROp(m), 2, 40, rng)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lv[0]) > 1e-8 {
		t.Errorf("smallest Laplacian eigenvalue = %v, want 0", lv[0])
	}
	if lv[1] <= 1e-8 {
		t.Errorf("second eigenvalue should be positive for a connected path, got %v", lv[1])
	}
}

func TestLanczosErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randomSymmetric(5, 9)
	if _, _, err := LanczosSmallestCtx(context.Background(), denseOp(a), 0, 10, rng); err == nil {
		t.Error("k=0 accepted")
	}
	if _, _, err := LanczosSmallestCtx(context.Background(), denseOp(a), 6, 10, rng); err == nil {
		t.Error("k>n accepted")
	}
}

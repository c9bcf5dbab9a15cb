package linalg

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"graphalign/internal/matrix"
)

func randomMat(rows, cols int, seed int64) *matrix.Dense {
	rng := rand.New(rand.NewSource(seed))
	m := matrix.NewDense(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// reconstruct returns U diag(s) Vᵀ.
func reconstruct(u *matrix.Dense, s []float64, v *matrix.Dense) *matrix.Dense {
	us := u.Clone()
	for j := range s {
		for i := 0; i < u.Rows; i++ {
			us.Set(i, j, u.At(i, j)*s[j])
		}
	}
	return matrix.MulABT(us, v)
}

func maxDiff(a, b *matrix.Dense) float64 {
	worst := 0.0
	for i := range a.Data {
		if d := math.Abs(a.Data[i] - b.Data[i]); d > worst {
			worst = d
		}
	}
	return worst
}

func TestSVDReconstructionTall(t *testing.T) {
	a := randomMat(8, 5, 1)
	u, s, v, err := SVDCtx(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxDiff(reconstruct(u, s, v), a); d > 1e-8 {
		t.Fatalf("reconstruction error %v", d)
	}
	for i := 1; i < len(s); i++ {
		if s[i] > s[i-1] {
			t.Fatal("singular values not descending")
		}
		if s[i] < 0 {
			t.Fatal("negative singular value")
		}
	}
}

func TestSVDAnyWide(t *testing.T) {
	a := randomMat(4, 9, 2)
	u, s, v, err := SVDAnyCtx(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	if u.Rows != 4 || v.Rows != 9 || len(s) != 4 {
		t.Fatalf("thin shapes wrong: u %dx%d v %dx%d r=%d", u.Rows, u.Cols, v.Rows, v.Cols, len(s))
	}
	if d := maxDiff(reconstruct(u, s, v), a); d > 1e-8 {
		t.Fatalf("reconstruction error %v", d)
	}
}

func TestPropertySVDSingularValuesMatchGram(t *testing.T) {
	// Squares of singular values are the eigenvalues of AᵀA.
	f := func(seed int64) bool {
		a := randomMat(7, 5, seed)
		_, s, _, err := SVDCtx(context.Background(), a)
		if err != nil {
			t.Fatal(err)
		}
		gram := matrix.Mul(a.T(), a)
		vals, _, err := SymEigenCtx(context.Background(), gram)
		if err != nil {
			return false
		}
		// vals ascending; s descending.
		for i := 0; i < 5; i++ {
			if math.Abs(s[i]*s[i]-vals[4-i]) > 1e-7*(1+vals[4-i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestTopKSVDSymMatchesJacobi(t *testing.T) {
	f := func(seed int64) bool {
		a := randomSymmetric(8, seed)
		u, s, v, err := TopKSVDSymCtx(context.Background(), a, 8)
		if err != nil {
			return false
		}
		// Reconstruction must equal a.
		if maxDiff(reconstruct(u, s, v), a) > 1e-7 {
			return false
		}
		// Values must match Jacobi SVD.
		_, js, _, err := SVDAnyCtx(context.Background(), a)
		if err != nil {
			t.Fatal(err)
		}
		for i := range s {
			if math.Abs(s[i]-js[i]) > 1e-7*(1+js[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

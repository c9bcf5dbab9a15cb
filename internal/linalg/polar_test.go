package linalg

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"graphalign/internal/matrix"
)

func TestPolarOrthogonalIsOrthogonal(t *testing.T) {
	f := func(seed int64) bool {
		m := randomMat(5, 5, seed)
		q, err := PolarOrthogonal(context.Background(), m)
		if err != nil {
			t.Fatal(err)
		}
		qtq := matrix.Mul(q.T(), q)
		for i := 0; i < 5; i++ {
			for j := 0; j < 5; j++ {
				want := 0.0
				if i == j {
					want = 1
				}
				if math.Abs(qtq.At(i, j)-want) > 1e-6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestPolarRecoversRotation(t *testing.T) {
	// For M = R D with R orthogonal and D diagonal positive, polar(M) = R.
	rng := rand.New(rand.NewSource(11))
	r, err := PolarOrthogonal(context.Background(), randomMat(4, 4, 12)) // some orthogonal matrix
	if err != nil {
		t.Fatal(err)
	}
	d := matrix.NewDense(4, 4)
	for i := 0; i < 4; i++ {
		d.Set(i, i, 1+rng.Float64())
	}
	m := matrix.Mul(r, d)
	got, err := PolarOrthogonal(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	if diff := maxDiff(got, r); diff > 1e-6 {
		t.Fatalf("polar factor off by %v", diff)
	}
}

func TestPolarMaximizesTrace(t *testing.T) {
	// polar(M) maximizes <Q, M> over orthogonal Q; any random rotation must
	// score no higher.
	m := randomMat(4, 4, 13)
	q, err := PolarOrthogonal(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	best := traceProd(q, m)
	for seed := int64(0); seed < 10; seed++ {
		r, err := PolarOrthogonal(context.Background(), randomMat(4, 4, 100+seed))
		if err != nil {
			t.Fatal(err)
		}
		if traceProd(r, m) > best+1e-8 {
			t.Fatalf("random rotation beats polar factor")
		}
	}
}

func traceProd(q, m *matrix.Dense) float64 {
	var s float64
	for i := range q.Data {
		s += q.Data[i] * m.Data[i]
	}
	return s
}

// TestPolarOrthogonalEmpty checks that a 0x0 matrix has the 0x0 polar
// factor instead of panicking in the eigensolver.
func TestPolarOrthogonalEmpty(t *testing.T) {
	q, err := PolarOrthogonal(context.Background(), matrix.NewDense(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if q.Rows != 0 || q.Cols != 0 {
		t.Fatalf("polar factor is %dx%d, want 0x0", q.Rows, q.Cols)
	}
}

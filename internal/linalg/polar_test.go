package linalg

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
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

// TestPolarReuseMatchesPolarOrthogonal runs one Polar over a sequence of
// matrices whose sizes change and repeat, rank-deficient and zero ones
// included: every factor must be bitwise PolarOrthogonal's, so reused
// scratch carries nothing from one call into the next.
func TestPolarReuseMatchesPolarOrthogonal(t *testing.T) {
	ctx := context.Background()
	rankDef := randomMat(6, 6, 3)
	for i := 0; i < 6; i++ {
		rankDef.Set(i, 2, 0)
		rankDef.Set(i, 4, rankDef.At(i, 1))
	}
	seq := []*matrix.Dense{
		randomMat(6, 6, 1), randomMat(6, 6, 2), rankDef, randomMat(9, 9, 4),
		matrix.NewDense(6, 6), randomMat(66, 66, 5), randomMat(6, 6, 6), randomMat(66, 66, 7),
	}
	var p Polar
	for k, m := range seq {
		want, err := PolarOrthogonal(ctx, m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.Orthogonal(ctx, m)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, fmt.Sprintf("matrix %d (%dx%d)", k, m.Rows, m.Cols), got, want)
	}
}

// TestPolarReuseAllocates bounds what a warm Polar allocates per call at
// CONE's embedding width: small per-call scratch (MulTo's index list,
// tred2's row, the eigenvalue sort, the worker-pool closures), not the six
// d x d matrices of a fresh PolarOrthogonal.
func TestPolarReuseAllocates(t *testing.T) {
	ctx := context.Background()
	const d = 66
	m := randomMat(d, d, 8)
	perCall := func(f func(context.Context, *matrix.Dense) (*matrix.Dense, error)) uint64 {
		if _, err := f(ctx, m); err != nil {
			t.Fatal(err)
		}
		const runs = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			if _, err := f(ctx, m); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	var p Polar
	warm, fresh := perCall(p.Orthogonal), perCall(PolarOrthogonal)
	t.Logf("bytes per call: warm Polar %d, PolarOrthogonal %d", warm, fresh)
	if one := uint64(d * d * 8); warm >= one {
		t.Fatalf("warm Polar allocates %d bytes per call, more than one %dx%d matrix (%d)", warm, d, d, one)
	}
}

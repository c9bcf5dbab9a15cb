package linalg

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"graphalign/internal/matrix"
)

func randomSymmetric(n int, seed int64) *matrix.Dense {
	rng := rand.New(rand.NewSource(seed))
	m := matrix.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	return m
}

func TestSymEigenKnown2x2(t *testing.T) {
	// [[2, 1], [1, 2]] has eigenvalues 1 and 3.
	a := matrix.DenseFromRows([][]float64{{2, 1}, {1, 2}})
	vals, vecs, err := SymEigenCtx(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vals[0]-1) > 1e-10 || math.Abs(vals[1]-3) > 1e-10 {
		t.Fatalf("vals = %v, want [1 3]", vals)
	}
	// Eigenvector of 3 is (1,1)/sqrt(2) up to sign.
	if math.Abs(math.Abs(vecs.At(0, 1))-1/math.Sqrt2) > 1e-10 {
		t.Errorf("vec = %v", vecs.Data)
	}
}

func TestSymEigenDiagonal(t *testing.T) {
	a := matrix.DenseFromRows([][]float64{{5, 0, 0}, {0, -2, 0}, {0, 0, 1}})
	vals, _, err := SymEigenCtx(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{-2, 1, 5}
	for i := range want {
		if math.Abs(vals[i]-want[i]) > 1e-12 {
			t.Fatalf("vals = %v, want %v", vals, want)
		}
	}
}

func TestSymEigenNonSquare(t *testing.T) {
	if _, _, err := SymEigenCtx(context.Background(), matrix.NewDense(2, 3)); err == nil {
		t.Error("non-square accepted")
	}
}

// residual returns max_i ||A v_i - lambda_i v_i||_inf.
func residual(a *matrix.Dense, vals []float64, vecs *matrix.Dense) float64 {
	n := a.Rows
	worst := 0.0
	for k := 0; k < len(vals); k++ {
		v := make([]float64, n)
		for i := 0; i < n; i++ {
			v[i] = vecs.At(i, k)
		}
		av := a.MulVec(v)
		for i := 0; i < n; i++ {
			if r := math.Abs(av[i] - vals[k]*v[i]); r > worst {
				worst = r
			}
		}
	}
	return worst
}

func TestPropertySymEigenResidualAndOrthogonality(t *testing.T) {
	f := func(seed int64) bool {
		n := 12
		a := randomSymmetric(n, seed)
		vals, vecs, err := SymEigenCtx(context.Background(), a)
		if err != nil {
			return false
		}
		if !sort.Float64sAreSorted(vals) {
			return false
		}
		if residual(a, vals, vecs) > 1e-8 {
			return false
		}
		// Orthogonality: VᵀV = I.
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				var dot float64
				for k := 0; k < n; k++ {
					dot += vecs.At(k, i) * vecs.At(k, j)
				}
				want := 0.0
				if i == j {
					want = 1
				}
				if math.Abs(dot-want) > 1e-8 {
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

func TestPropertyEigenvalueSumEqualsTrace(t *testing.T) {
	f := func(seed int64) bool {
		a := randomSymmetric(10, seed)
		vals, _, err := SymEigenCtx(context.Background(), a)
		if err != nil {
			return false
		}
		var sum, trace float64
		for _, v := range vals {
			sum += v
		}
		for i := 0; i < 10; i++ {
			trace += a.At(i, i)
		}
		return math.Abs(sum-trace) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// BenchmarkSymEigen times the full eigendecomposition at the sizes CONE
// reaches on the dense-paper instances: its 66x66 Procrustes Gram matrix and
// its n=200 NetMF matrix (GRASP's Laplacian has the same size).
func BenchmarkSymEigen(b *testing.B) {
	for _, n := range []int{66, 200} {
		a := randomSymmetric(n, 1)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ctx := context.Background()
			b.ReportAllocs()
			for b.Loop() {
				if _, _, err := SymEigenCtx(ctx, a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestSymEigenEmpty checks that a 0x0 matrix has no eigenpairs instead of
// indexing its empty diagonal.
func TestSymEigenEmpty(t *testing.T) {
	vals, vecs, err := SymEigenCtx(context.Background(), matrix.NewDense(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 0 || vecs.Rows != 0 || vecs.Cols != 0 {
		t.Fatalf("0x0: got %d values and a %dx%d vector matrix", len(vals), vecs.Rows, vecs.Cols)
	}
}

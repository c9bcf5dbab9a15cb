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

// worstEigenResidual returns max_k ||A v_k - λ_k v_k||₂ / ||A||_F over the
// eigenpairs of a, 0 for the zero matrix.
func worstEigenResidual(a *matrix.Dense, vals []float64, vecs *matrix.Dense) float64 {
	n := a.Rows
	var fro float64
	for _, v := range a.Data {
		fro += v * v
	}
	fro = math.Sqrt(fro)
	worst := 0.0
	v := make([]float64, n)
	for k, lambda := range vals {
		for i := range v {
			v[i] = vecs.At(i, k)
		}
		var r2 float64
		for i, av := range a.MulVec(v) {
			d := av - lambda*v[i]
			r2 += d * d
		}
		worst = max(worst, math.Sqrt(r2))
	}
	if fro == 0 {
		return worst
	}
	return worst / fro
}

// twoBlock returns the n×n matrix whose entry (i, j) is in when i and j lie
// on the same side of split and out otherwise; split = n gives the constant
// matrix in.
func twoBlock(n, split int, in, out float64) *matrix.Dense {
	m := matrix.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := out
			if (i < split) == (j < split) {
				v = in
			}
			m.Set(i, j, v)
		}
	}
	return m
}

// TestSymEigenRankDeficient runs the eigensolver on low-rank kernels whose
// tridiagonal null-space block decays into subnormals: the 100×100 all-ones
// matrix, a 100×100 matrix with two 50-node blocks (1 inside a block, 0.7
// across), and the 76×76 all-ones landmark kernel of a REGAL shard whose
// landmarks are all isolated nodes. Every eigenpair must satisfy
// ||Av − λv||₂ ≤ 1e-10·||A||_F.
func TestSymEigenRankDeficient(t *testing.T) {
	for _, c := range []struct {
		name string
		a    *matrix.Dense
	}{
		{"ones 100", twoBlock(100, 100, 1, 1)},
		{"two blocks 100", twoBlock(100, 50, 1, 0.7)},
		{"isolated-landmark kernel 76", twoBlock(76, 76, 1, 1)},
	} {
		vals, vecs, err := SymEigenCtx(context.Background(), c.a)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !sort.Float64sAreSorted(vals) {
			t.Errorf("%s: eigenvalues not ascending", c.name)
		}
		if r := worstEigenResidual(c.a, vals, vecs); r > 1e-10 {
			t.Errorf("%s: worst ||Av − λv|| = %.3g·||A||, want ≤ 1e-10", c.name, r)
		}
	}
}

// blockSymmetric decodes a fuzz input into a symmetric matrix built from a
// few distinct values laid out in blocks, so that repeated rows and
// degenerate spectra are common. data[0] gives n = 1 + data[0]%128,
// data[1] the block count 1 + data[1]%8, data[2] the value count
// 1 + data[2]%4; the next bytes are the values, int8/10 each, then one
// value index per block pair (a ≤ b, row-major). Any bytes left assign the
// nodes to blocks, cycled over n; with none, the blocks are contiguous.
// Missing bytes read as 0.
func blockSymmetric(data []byte) *matrix.Dense {
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	n, nb, nv := 1+at(0)%128, 1+at(1)%8, 1+at(2)%4
	off := 3
	vals := make([]float64, nv)
	for i := range vals {
		vals[i] = float64(int8(at(off))) / 10
		off++
	}
	pair := make([][]float64, nb)
	for a := range pair {
		pair[a] = make([]float64, nb)
	}
	for a := 0; a < nb; a++ {
		for b := a; b < nb; b++ {
			v := vals[at(off)%nv]
			pair[a][b], pair[b][a] = v, v
			off++
		}
	}
	block := make([]int, n)
	for i := range block {
		if rest := len(data) - off; rest > 0 {
			block[i] = int(data[off+i%rest]) % nb
		} else {
			block[i] = i * nb / n
		}
	}
	m := matrix.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, pair[block[i]][block[j]])
		}
	}
	return m
}

// FuzzSymEigen runs the eigensolver on block-structured symmetric matrices
// of up to 128 rows: it must not fail, its eigenvalues must ascend, and
// every eigenpair must satisfy ||Av − λv||₂ ≤ 1e-9·||A||_F. The corpus is
// seeded with the rank-deficient matrices of TestSymEigenRankDeficient.
func FuzzSymEigen(f *testing.F) {
	f.Add([]byte{99, 0, 0, 10})             // 100×100 all ones
	f.Add([]byte{99, 1, 1, 10, 7, 0, 1, 0}) // two 50-node blocks, 1 inside, 0.7 across
	f.Add([]byte{75, 0, 0, 10})             // 76×76 all ones
	f.Fuzz(func(t *testing.T, data []byte) {
		a := blockSymmetric(data)
		vals, vecs, err := SymEigenCtx(context.Background(), a)
		if err != nil {
			t.Fatalf("%d×%d: %v", a.Rows, a.Cols, err)
		}
		if !sort.Float64sAreSorted(vals) {
			t.Fatalf("%d×%d: eigenvalues not ascending: %v", a.Rows, a.Cols, vals)
		}
		if r := worstEigenResidual(a, vals, vecs); r > 1e-9 {
			t.Fatalf("%d×%d: worst ||Av − λv|| = %.3g·||A||, want ≤ 1e-9", a.Rows, a.Cols, r)
		}
	})
}

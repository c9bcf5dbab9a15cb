package linalg

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"graphalign/internal/matrix"
)

// matOp adapts a materialized matrix to Operator.
type matOp struct{ a *matrix.Dense }

func (d matOp) Dims() (int, int)                   { return d.a.Rows, d.a.Cols }
func (d matOp) Mul(x *matrix.Dense) *matrix.Dense  { return matrix.Mul(d.a, x) }
func (d matOp) MulT(y *matrix.Dense) *matrix.Dense { return matrix.Mul(d.a.T(), y) }

func TestTruncatedSVDMatchesFullOnDecayingSpectrum(t *testing.T) {
	// Build a matrix with a strongly decaying spectrum: A = sum_i s_i u v.
	rng := rand.New(rand.NewSource(1))
	m, n := 40, 30
	a := matrix.NewDense(m, n)
	for i := 0; i < 5; i++ {
		u := make([]float64, m)
		v := make([]float64, n)
		for j := range u {
			u[j] = rng.NormFloat64()
		}
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		matrix.Normalize(u)
		matrix.Normalize(v)
		a.AddOuterScaled(u, v, math.Pow(0.3, float64(i))*10)
	}
	uT, sT, vT, err := TruncatedSVDCtx(context.Background(), matOp{a}, 3, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	_, sF, _, err := SVDAnyCtx(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if math.Abs(sT[i]-sF[i]) > 1e-6*(1+sF[i]) {
			t.Errorf("singular value %d: truncated %v vs full %v", i, sT[i], sF[i])
		}
	}
	// Rank-3 reconstruction error should match the optimal (s_4 scale).
	recon := matrix.NewDense(m, n)
	for c := 0; c < 3; c++ {
		uc := make([]float64, m)
		vc := make([]float64, n)
		for i := 0; i < m; i++ {
			uc[i] = uT.At(i, c)
		}
		for i := 0; i < n; i++ {
			vc[i] = vT.At(i, c)
		}
		recon.AddOuterScaled(uc, vc, sT[c])
	}
	var errF float64
	for i := range a.Data {
		d := a.Data[i] - recon.Data[i]
		errF += d * d
	}
	errF = math.Sqrt(errF)
	if errF > sF[3]*2+1e-9 {
		t.Errorf("rank-3 reconstruction error %v exceeds 2x optimal %v", errF, sF[3])
	}
}

func TestTruncatedSVDOrthonormal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomMat(20, 15, seed)
		u, _, v, err := TruncatedSVDCtx(context.Background(), matOp{a}, 4, 2, rng)
		if err != nil {
			t.Fatal(err)
		}
		return columnsOrthonormal(u) && columnsOrthonormal(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func columnsOrthonormal(m *matrix.Dense) bool {
	for a := 0; a < m.Cols; a++ {
		for b := a; b < m.Cols; b++ {
			var dot float64
			for i := 0; i < m.Rows; i++ {
				dot += m.At(i, a) * m.At(i, b)
			}
			want := 0.0
			if a == b {
				want = 1
			}
			if math.Abs(dot-want) > 1e-6 {
				return false
			}
		}
	}
	return true
}

func TestTruncatedSVDEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomMat(5, 3, 3)
	// k larger than min dimension clamps.
	_, s, _, err := TruncatedSVDCtx(context.Background(), matOp{a}, 10, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 3 {
		t.Errorf("k clamp failed: %d values", len(s))
	}
	// k = 0 returns empty factors.
	u, s0, v, err := TruncatedSVDCtx(context.Background(), matOp{a}, 0, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(s0) != 0 || u.Cols != 0 || v.Cols != 0 {
		t.Error("k=0 should return empty decomposition")
	}
}

// TestTruncatedSVDMatchesReferenceBitwise pins the Operator form to the
// materialized reference on matrices whose zero entries (scattered, whole
// zero rows and columns) make the (Aᵀ Y)ᵀ projection skip terms that Yᵀ A
// keeps, across tall, wide and square shapes and several ranks.
func TestTruncatedSVDMatchesReferenceBitwise(t *testing.T) {
	ctx := context.Background()
	for _, shape := range [][2]int{{40, 30}, {30, 40}, {25, 25}, {12, 7}} {
		m, n := shape[0], shape[1]
		a := randomMat(m, n, int64(m*n))
		for i := range a.Data {
			if i%3 == 0 {
				a.Data[i] = 0
			}
		}
		for j := 0; j < n; j++ {
			a.Set(1, j, 0)
		}
		for i := 0; i < m; i++ {
			a.Set(i, 2, 0)
		}
		for _, k := range []int{1, 3, 5} {
			gu, gs, gv, err := TruncatedSVDCtx(ctx, matOp{a}, k, 3, rand.New(rand.NewSource(7)))
			if err != nil {
				t.Fatal(err)
			}
			wu, ws, wv, err := TruncatedSVDReference(ctx, a, k, 3, rand.New(rand.NewSource(7)))
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, "u", gu, wu)
			sameSliceBits(t, "s", gs, ws)
			sameBits(t, "v", gv, wv)
		}
	}
}

package matrix

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-10 }

func randomDense(rows, cols int, seed int64) *Dense {
	rng := rand.New(rand.NewSource(seed))
	m := NewDense(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestNewDenseAndAccessors(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(1, 2, 5)
	m.Add(1, 2, 1)
	if m.At(1, 2) != 6 {
		t.Fatalf("At = %v, want 6", m.At(1, 2))
	}
	row := m.Row(1)
	if len(row) != 3 || row[2] != 6 {
		t.Error("Row view mismatch")
	}
	row[0] = 9
	if m.At(1, 0) != 9 {
		t.Error("Row must alias storage")
	}
}

func TestDenseFromRows(t *testing.T) {
	m := DenseFromRows([][]float64{{1, 2}, {3, 4}})
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Error("DenseFromRows filled wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("ragged rows should panic")
		}
	}()
	DenseFromRows([][]float64{{1}, {2, 3}})
}

func TestMulKnown(t *testing.T) {
	a := DenseFromRows([][]float64{{1, 2}, {3, 4}})
	b := DenseFromRows([][]float64{{5, 6}, {7, 8}})
	c := Mul(a, b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != want[i][j] {
				t.Errorf("C[%d][%d] = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestMulABTMatchesMulWithTranspose(t *testing.T) {
	a := randomDense(4, 6, 1)
	b := randomDense(5, 6, 2)
	got := MulABT(a, b)
	want := Mul(a, b.T())
	for i := range got.Data {
		if !almostEqual(got.Data[i], want.Data[i]) {
			t.Fatalf("MulABT differs from Mul with transpose at %d", i)
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	a := randomDense(3, 5, 3)
	tt := a.T().T()
	for i := range a.Data {
		if a.Data[i] != tt.Data[i] {
			t.Fatal("transpose twice should be identity")
		}
	}
}

func TestMulVec(t *testing.T) {
	a := DenseFromRows([][]float64{{1, 0, 2}, {0, 3, 0}})
	got := a.MulVec([]float64{1, 2, 3})
	if got[0] != 7 || got[1] != 6 {
		t.Errorf("MulVec = %v", got)
	}
}

func TestScaleAddHadamard(t *testing.T) {
	a := DenseFromRows([][]float64{{1, 2}})
	b := DenseFromRows([][]float64{{3, 4}})
	a.Scale(2).AddScaled(b, 1)
	if a.At(0, 0) != 2+3 || a.At(0, 1) != 4+4 {
		t.Errorf("chained ops wrong: %v", a.Data)
	}
}

func TestSumsAndNorms(t *testing.T) {
	a := DenseFromRows([][]float64{{3, -4}, {0, 0}})
	if a.Sum() != -1 {
		t.Errorf("Sum = %v", a.Sum())
	}
	if a.FrobNorm() != 5 {
		t.Errorf("FrobNorm = %v", a.FrobNorm())
	}
	rs := a.RowSums()
	if rs[0] != -1 || rs[1] != 0 {
		t.Errorf("RowSums = %v", rs)
	}
	cs := a.ColSums()
	if cs[0] != 3 || cs[1] != -4 {
		t.Errorf("ColSums = %v", cs)
	}
}

func TestOuterAndAddOuterScaled(t *testing.T) {
	u := []float64{1, 2}
	v := []float64{3, 4, 5}
	o := Outer(u, v)
	if o.At(1, 2) != 10 || o.At(0, 0) != 3 {
		t.Errorf("Outer wrong: %v", o.Data)
	}
	m := NewDense(2, 3)
	m.AddOuterScaled(u, v, 2)
	if m.At(1, 1) != 16 {
		t.Errorf("AddOuterScaled wrong: %v", m.Data)
	}
}

func TestVectorHelpers(t *testing.T) {
	if Dot([]float64{1, 2}, []float64{3, 4}) != 11 {
		t.Error("Dot wrong")
	}
	if Norm2([]float64{3, 4}) != 5 {
		t.Error("Norm2 wrong")
	}
	v := []float64{3, 4}
	if n := Normalize(v); n != 5 || !almostEqual(Norm2(v), 1) {
		t.Error("Normalize wrong")
	}
	zero := []float64{0, 0}
	if Normalize(zero) != 0 {
		t.Error("Normalize of zero vector should return 0")
	}
	y := []float64{1, 1}
	AxpyVec(y, []float64{2, 3}, 2)
	if y[0] != 5 || y[1] != 7 {
		t.Error("AxpyVec wrong")
	}
}

func TestPropertyMulAssociativeWithVector(t *testing.T) {
	// (A B) x == A (B x)
	f := func(seed int64) bool {
		a := randomDense(4, 5, seed)
		b := randomDense(5, 3, seed+1)
		x := []float64{1, -2, 0.5}
		left := Mul(a, b).MulVec(x)
		right := a.MulVec(b.MulVec(x))
		for i := range left {
			if !almostEqual(left[i], right[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestShapePanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"mul":    func() { Mul(NewDense(2, 3), NewDense(2, 3)) },
		"mulvec": func() { NewDense(2, 3).MulVec([]float64{1}) },
		"dot":    func() { Dot([]float64{1}, []float64{1, 2}) },
		"outer":  func() { NewDense(2, 2).AddOuterScaled([]float64{1}, []float64{1, 2}, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: shape mismatch should panic", name)
				}
			}()
			fn()
		}()
	}
}

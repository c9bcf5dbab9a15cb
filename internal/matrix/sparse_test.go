package matrix

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomCSR(rows, cols, nnz int, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	rIdx := make([]int, nnz)
	cIdx := make([]int, nnz)
	vals := make([]float64, nnz)
	for i := 0; i < nnz; i++ {
		rIdx[i] = rng.Intn(rows)
		cIdx[i] = rng.Intn(cols)
		vals[i] = rng.NormFloat64()
	}
	m, err := NewCSR(rows, cols, rIdx, cIdx, vals)
	if err != nil {
		panic(err)
	}
	return m
}

func TestNewCSRBasics(t *testing.T) {
	m, err := NewCSR(2, 3, []int{0, 1, 0}, []int{2, 1, 2}, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 2 {
		t.Fatalf("nnz = %d, want 2 (duplicates summed)", m.NNZ())
	}
	d := m.ToDense()
	if d.At(0, 2) != 4 || d.At(1, 1) != 2 {
		t.Errorf("dense = %v", d.Data)
	}
	cols, vals := m.RowRange(0)
	if len(cols) != 1 || cols[0] != 2 || vals[0] != 4 {
		t.Errorf("RowRange = %v %v", cols, vals)
	}
}

func TestNewCSRErrors(t *testing.T) {
	if _, err := NewCSR(2, 2, []int{0}, []int{0, 1}, []float64{1, 2}); err == nil {
		t.Error("unequal slices accepted")
	}
	if _, err := NewCSR(2, 2, []int{5}, []int{0}, []float64{1}); err == nil {
		t.Error("out-of-range row accepted")
	}
}

func TestCSRMulVecMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		m := randomCSR(6, 4, 10, seed)
		x := []float64{1, -1, 2, 0.5}
		got := m.MulVec(x)
		want := m.ToDense().MulVec(x)
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestCSRMulDense(t *testing.T) {
	m := randomCSR(4, 5, 8, 1)
	d := randomDense(5, 3, 2)
	got := m.MulDense(d)
	want := Mul(m.ToDense(), d)
	for i := range got.Data {
		if math.Abs(got.Data[i]-want.Data[i]) > 1e-12 {
			t.Fatal("MulDense mismatch")
		}
	}
}

// TestCSRMulDenseToOverwrites checks that MulDenseTo clears a reused
// buffer: a product written over stale values equals a fresh MulDense, bit
// for bit, on the serial and the row-blocked parallel path.
func TestCSRMulDenseToOverwrites(t *testing.T) {
	for _, sh := range [][3]int{{4, 5, 3}, {500, 500, 200}} {
		m := randomCSR(sh[0], sh[1], sh[0]*40, 5)
		d := randomDense(sh[1], sh[2], 6)
		want := m.MulDense(d)
		out := NewDense(sh[0], sh[2])
		out.Fill(math.NaN())
		if got := m.MulDenseTo(out, d); got != out {
			t.Fatal("MulDenseTo did not return its output buffer")
		}
		for i := range want.Data {
			if math.Float64bits(out.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("%v: [%d] = %v after reuse, fresh %v", sh, i, out.Data[i], want.Data[i])
			}
		}
	}
}

func TestCSRTransposeInvolution(t *testing.T) {
	m := randomCSR(5, 6, 10, 4)
	tt := m.T().T().ToDense()
	d := m.ToDense()
	for i := range d.Data {
		if d.Data[i] != tt.Data[i] {
			t.Fatal("CSR transpose twice should be identity")
		}
	}
}

func TestCSRScaleRowsCols(t *testing.T) {
	m, _ := NewCSR(2, 2, []int{0, 1}, []int{1, 0}, []float64{2, 3})
	m.ScaleRows([]float64{2, 3})
	d := m.ToDense()
	if d.At(0, 1) != 4 || d.At(1, 0) != 9 {
		t.Errorf("ScaleRows wrong: %v", d.Data)
	}
}

func TestCSRClone(t *testing.T) {
	m := randomCSR(3, 3, 5, 5)
	c := m.Clone()
	c.Val[0] = 999
	if m.Val[0] == 999 {
		t.Error("Clone must deep-copy values")
	}
}

package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// naiveMulABT is the textbook dot-product reference for MulABT: no zero
// skip, k-ascending from +0.
func naiveMulABT(a, b *Dense) *Dense {
	out := NewDense(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(j, k)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

// specialDense draws entries that stress bitwise equality: explicit zeros
// of both signs (which Mul skips in a), ±Inf and ordinary values.
func specialDense(rows, cols int, seed int64) *Dense {
	rng := rand.New(rand.NewSource(seed))
	m := NewDense(rows, cols)
	for i := range m.Data {
		switch r := rng.Float64(); {
		case r < 0.2:
			m.Data[i] = 0
		case r < 0.3:
			m.Data[i] = math.Copysign(0, -1)
		case r < 0.33:
			m.Data[i] = math.Inf(1)
		case r < 0.36:
			m.Data[i] = math.Inf(-1)
		default:
			m.Data[i] = rng.NormFloat64()
		}
	}
	return m
}

func requireBitwise(t *testing.T, what string, got, want *Dense) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: element %d = %v, want %v", what, i, got.Data[i], want.Data[i])
		}
	}
}

// kernelShapes covers the tile edges: empty operands, inner dimensions
// below the four-way unroll, odd row counts and column counts that are not
// a multiple of four.
var kernelShapes = [][3]int{ // rows, inner, cols
	{0, 5, 3}, {3, 0, 4}, {4, 3, 0}, {1, 1, 1}, {1, 3, 2}, {2, 2, 4},
	{3, 5, 7}, {5, 4, 9}, {7, 9, 6}, {8, 8, 8}, {9, 13, 11}, {17, 6, 5},
}

// TestKernelsMatchNaiveBitwise pins Mul, MulTo, MulABT and MulABTTo to the
// naive triple loops bit for bit, including NaN and signed-zero results,
// with MulTo/MulABTTo writing over a buffer full of garbage.
func TestKernelsMatchNaiveBitwise(t *testing.T) {
	for si, sh := range kernelShapes {
		r, k, c := sh[0], sh[1], sh[2]
		for _, special := range []bool{false, true} {
			gen := randomDense
			if special {
				gen = specialDense
			}
			name := fmt.Sprintf("%dx%dx%d special=%v", r, k, c, special)
			a, b := gen(r, k, int64(10*si+1)), gen(k, c, int64(10*si+2))
			want := naiveMul(a, b)
			requireBitwise(t, name+" Mul", Mul(a, b), want)
			dirty := NewDense(r, c)
			dirty.Fill(math.NaN())
			requireBitwise(t, name+" MulTo", MulTo(dirty, a, b), want)

			bt := gen(c, k, int64(10*si+3))
			want = naiveMulABT(a, bt)
			requireBitwise(t, name+" MulABT", MulABT(a, bt), want)
			dirty.Fill(math.Inf(-1))
			requireBitwise(t, name+" MulABTTo", MulABTTo(dirty, a, bt), want)
		}
	}
}

// TestKernelsWorkerCountBitwise runs products above parallelFlops, with odd
// row counts so worker blocks split the 2-row tiles unevenly, at one and at
// four workers: both must equal the naive reference bitwise.
func TestKernelsWorkerCountBitwise(t *testing.T) {
	a := specialDense(161, 150, 5)
	b := specialDense(150, 103, 6)
	bt := specialDense(103, 150, 7)
	if 161*150*103 < parallelFlops {
		t.Fatal("product below parallelFlops; enlarge the operands")
	}
	wantMul, wantABT := naiveMul(a, b), naiveMulABT(a, bt)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, workers := range []int{1, 4} {
		runtime.GOMAXPROCS(workers)
		name := fmt.Sprintf("workers=%d", workers)
		requireBitwise(t, name+" Mul", Mul(a, b), wantMul)
		requireBitwise(t, name+" MulABT", MulABT(a, bt), wantABT)
		requireBitwise(t, name+" MulTo", MulTo(NewDense(161, 103), a, b), wantMul)
	}
}

func TestMulToShapePanics(t *testing.T) {
	a, b := NewDense(2, 3), NewDense(3, 4)
	for name, f := range map[string]func(){
		"MulTo":    func() { MulTo(NewDense(2, 3), a, b) },
		"MulABTTo": func() { MulABTTo(NewDense(2, 4), a, NewDense(5, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with a mis-shaped output did not panic", name)
				}
			}()
			f()
		}()
	}
}

func BenchmarkMul(b *testing.B) {
	x, y := randomDense(200, 200, 1), randomDense(200, 200, 2)
	out := NewDense(200, 200)
	b.ReportAllocs()
	for b.Loop() {
		MulTo(out, x, y)
	}
}

func BenchmarkMulABT(b *testing.B) {
	x, y := randomDense(200, 200, 1), randomDense(200, 200, 2)
	out := NewDense(200, 200)
	b.ReportAllocs()
	for b.Loop() {
		MulABTTo(out, x, y)
	}
}

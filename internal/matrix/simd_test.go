package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// vectorSpecials are the values that tell a faithful lane from a
// reassociated or fused one: signed zeros, infinities, NaN, subnormals and
// magnitudes whose products overflow.
var vectorSpecials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	5e-324, -5e-324, 0x1p-1030, 1e300, -1e300, 1, -1, 0.1,
}

// vectorValues draws n values at offset off into a buffer of n+off+4
// values: with probability pSpecial a special value, else a normal draw.
func vectorValues(rng *rand.Rand, n, off int, pSpecial float64) []float64 {
	buf := make([]float64, n+off+4)
	for i := range buf {
		if rng.Float64() < pSpecial {
			buf[i] = vectorSpecials[rng.Intn(len(vectorSpecials))]
		} else {
			buf[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
		}
	}
	return buf[off : off+n]
}

func vectorScalar(rng *rand.Rand, pSpecial float64) float64 {
	return vectorValues(rng, 1, 0, pSpecial)[0]
}

// sameBits returns the first index where got and want differ, or -1. Every
// value must match bit for bit, except that a NaN matches any NaN: the Go
// spec leaves NaN payloads unspecified, and the compiler commutes the
// operands of + and * (the generic addMul4 compiles to ADDSD with the
// product as destination), so the payload that survives when two NaNs
// meet is not fixed by the source.
func sameBits(got, want []float64) int {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			return i
		}
	}
	return -1
}

// checkVectorKernels runs every kernel variable (the assembly, when
// installed) and its generic Go loop on copies of the same inputs and
// reports the first element whose bits differ.
func checkVectorKernels(t *testing.T, rng *rand.Rand, n, off int, pSpecial float64) {
	t.Helper()
	vals := func() []float64 { return vectorValues(rng, n, off, pSpecial) }
	scalar := func() float64 { return vectorScalar(rng, pSpecial) }
	twice := func(v []float64) ([]float64, []float64) {
		return v, append([]float64(nil), v...)
	}
	fail := func(kernel string, i int, got, want float64) {
		t.Helper()
		t.Fatalf("%s n=%d off=%d: element %d = %v (%#x), generic %v (%#x)",
			kernel, n, off, i, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	check := func(kernel string, got, want []float64) {
		t.Helper()
		if i := sameBits(got, want); i >= 0 {
			fail(kernel, i, got[i], want[i])
		}
	}

	b0, b1, b2, b3 := vals(), vals(), vals(), vals()
	a0, a1, a2, a3 := scalar(), scalar(), scalar(), scalar()
	o, ref := twice(vals())
	addMul4(o, b0, b1, b2, b3, a0, a1, a2, a3)
	addMul4Generic(ref, b0, b1, b2, b3, a0, a1, a2, a3)
	check("addMul4", o, ref)

	x, s := vals(), scalar()
	y, ref := twice(vals())
	axpy(y, x, s)
	axpyGeneric(ref, x, s)
	check("axpy", y, ref)

	y, ref = twice(vals())
	subScaled(y, x, s)
	subScaledGeneric(ref, x, s)
	check("subScaled", y, ref)

	w, bs := vals(), scalar()
	y, ref = twice(vals())
	subMul2(y, s, x, bs, w)
	subMul2Generic(ref, s, x, bs, w)
	check("subMul2", y, ref)

	c := scalar()
	rx, refx := twice(vals())
	ry, refy := twice(vals())
	rotate(rx, ry, c, s)
	rotateGeneric(refx, refy, c, s)
	check("rotate x", rx, refx)
	check("rotate y", ry, refy)

	v := vals()
	g0, g1, g2, g3 := dot4(b0, b1, b2, b3, v)
	w0, w1, w2, w3 := dot4Generic(b0, b1, b2, b3, v)
	check("dot4", []float64{g0, g1, g2, g3}, []float64{w0, w1, w2, w3})

	// Tiles: four rows of a and of b, k = n, strides n+2 (so rows start at
	// every alignment) and 0 (one row repeated), into a 4x6 output.
	for _, lda := range []int{n + 2, 0} {
		a := vectorValues(rng, 3*lda+n, off, pSpecial)
		bt := vectorValues(rng, 3*(n+2)+n, off, pSpecial)
		for _, tk := range []struct {
			name          string
			kernel, plain func(out []float64, ldo int, a []float64, lda int, b []float64, ldb, k int)
		}{
			{"abtTile", abtTile, abtTileGeneric},
			{"sqDistTile", sqDistTile, sqDistTileGeneric},
		} {
			ldo := 6
			if lda == 0 {
				ldo = 0
			}
			got, want := make([]float64, 24), make([]float64, 24)
			tk.kernel(got[off%2:], ldo, a, lda, bt, n+2, n)
			tk.plain(want[off%2:], ldo, a, lda, bt, n+2, n)
			check(fmt.Sprintf("%s lda=%d", tk.name, lda), got, want)
		}
	}
}

// TestVectorKernelsMatchGeneric holds every assembly kernel to its generic
// Go loop bit for bit: lengths 0–67 (every vector body and tail), slice
// offsets 0–3 into a larger buffer (unaligned loads), and inputs mixing
// ordinary values with ±0, ±Inf, NaN, subnormals and ±1e300.
func TestVectorKernelsMatchGeneric(t *testing.T) {
	if !haveVectors {
		t.Skip("no vector kernels on this CPU; the generic loops run everywhere")
	}
	rng := rand.New(rand.NewSource(32))
	for n := 0; n <= 67; n++ {
		for off := 0; off < 4; off++ {
			for _, p := range []float64{0, 0.3, 1} {
				checkVectorKernels(t, rng, n, off, p)
			}
		}
	}
}

// FuzzVectorKernels is TestVectorKernelsMatchGeneric over fuzzed lengths,
// offsets, special-value rates and draws.
func FuzzVectorKernels(f *testing.F) {
	f.Add(uint8(5), uint8(1), uint8(128), int64(1))
	f.Add(uint8(67), uint8(3), uint8(255), int64(2))
	f.Add(uint8(0), uint8(0), uint8(0), int64(3))
	f.Fuzz(func(t *testing.T, n, off, special uint8, seed int64) {
		if !haveVectors {
			t.Skip("no vector kernels on this CPU")
		}
		rng := rand.New(rand.NewSource(seed))
		checkVectorKernels(t, rng, int(n)%130, int(off)%4, float64(special)/255)
	})
}

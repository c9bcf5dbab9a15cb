package matrix

// Vector kernels. Each variable below starts as its generic Go loop; on a
// CPU with AVX2, init in simd_amd64.go swaps in the assembly kernel. Every
// assembly kernel computes one output element per SIMD lane, with the same
// operations in the same order as its generic loop (VMULPD, VADDPD and
// VSUBPD with the Go expression's left operand as the first source; no
// FMA, no reassociation, no sums across lanes), so the two are bitwise
// equal on every input, signed zeros, infinities and NaNs included.
// TestVectorKernelsMatchGeneric and FuzzVectorKernels hold them to that.
var (
	addMul4     = addMul4Generic
	axpy        = axpyGeneric
	subScaled   = subScaledGeneric
	subMul2     = subMul2Generic
	rotate      = rotateGeneric
	dot4        = dot4Generic
	abtTile     = abtTileGeneric
	sqDistTile  = sqDistTileGeneric
	haveVectors = false // true once init installed the assembly kernels
)

// AddMul4 adds four scaled rows into o in one pass:
//
//	o[j] = (((o[j] + a0·b0[j]) + a1·b1[j]) + a2·b2[j]) + a3·b3[j]
//
// which is bitwise four one-row updates o[j] += a·b[j] in that order. Each
// b must be at least len(o) long.
func AddMul4(o, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64) {
	n := len(o)
	addMul4(o, b0[:n], b1[:n], b2[:n], b3[:n], a0, a1, a2, a3)
}

func addMul4Generic(o, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64) {
	b0, b1, b2, b3 = b0[:len(o)], b1[:len(o)], b2[:len(o)], b3[:len(o)]
	for j, x := range o {
		x += a0 * b0[j]
		x += a1 * b1[j]
		x += a2 * b2[j]
		x += a3 * b3[j]
		o[j] = x
	}
}

// AxpyVec computes y += s*x in place.
func AxpyVec(y []float64, x []float64, s float64) {
	if len(x) != len(y) {
		panic("matrix: axpy length mismatch")
	}
	axpy(y, x, s)
}

func axpyGeneric(y, x []float64, s float64) {
	x = x[:len(y)]
	for i, v := range x {
		y[i] += s * v
	}
}

// SubScaledVec computes y[i] -= x[i]*s in place.
func SubScaledVec(y, x []float64, s float64) {
	if len(x) != len(y) {
		panic("matrix: subScaled length mismatch")
	}
	subScaled(y, x, s)
}

func subScaledGeneric(y, x []float64, s float64) {
	x = x[:len(y)]
	for i, v := range x {
		y[i] -= v * s
	}
}

// SubMul2Vec computes y[i] -= a*x[i] + b*w[i] in place, the product sum
// formed first.
func SubMul2Vec(y []float64, a float64, x []float64, b float64, w []float64) {
	if len(x) != len(y) || len(w) != len(y) {
		panic("matrix: subMul2 length mismatch")
	}
	subMul2(y, a, x, b, w)
}

func subMul2Generic(y []float64, a float64, x []float64, b float64, w []float64) {
	x, w = x[:len(y)], w[:len(y)]
	for i := range y {
		y[i] -= a*x[i] + b*w[i]
	}
}

// RotateVec applies the plane rotation (c, s) to the rows x and y in place:
// y[k] = s·x[k] + c·y[k] and x[k] = c·x[k] − s·y[k], both from the old
// values.
func RotateVec(x, y []float64, c, s float64) {
	if len(x) != len(y) {
		panic("matrix: rotate length mismatch")
	}
	rotate(x, y, c, s)
}

func rotateGeneric(x, y []float64, c, s float64) {
	y = y[:len(x)]
	for k, f := range y {
		y[k] = s*x[k] + c*f
		x[k] = c*x[k] - s*f
	}
}

// Dot4 returns the dot products of v with four rows, each accumulated
// index-ascending from +0 in its own chain, so each is bitwise
// Σ r[j]·v[j] taken one term at a time. Each row must be at least len(v)
// long.
func Dot4(r0, r1, r2, r3, v []float64) (s0, s1, s2, s3 float64) {
	n := len(v)
	return dot4(r0[:n], r1[:n], r2[:n], r3[:n], v)
}

func dot4Generic(r0, r1, r2, r3, v []float64) (s0, s1, s2, s3 float64) {
	r0, r1, r2, r3 = r0[:len(v)], r1[:len(v)], r2[:len(v)], r3[:len(v)]
	for j, vj := range v {
		s0 += r0[j] * vj
		s1 += r1[j] * vj
		s2 += r2[j] * vj
		s3 += r3[j] * vj
	}
	return
}

// abtTileGeneric writes a 4x4 tile of a*bᵀ: out[r*ldo+l] is the dot
// product of the k-long rows a[r*lda:] and b[l*ldb:], accumulated
// t-ascending from +0. A zero stride repeats one row, so a tile over fewer
// than four rows of a computes (and stores) the same row more than once.
func abtTileGeneric(out []float64, ldo int, a []float64, lda int, b []float64, ldb, k int) {
	for r := 0; r < 4; r++ {
		x := a[r*lda : r*lda+k]
		for l := 0; l < 4; l++ {
			y := b[l*ldb : l*ldb+k]
			var s float64
			for t, u := range x {
				s += u * y[t]
			}
			out[r*ldo+l] = s
		}
	}
}

// sqDistTileGeneric is abtTileGeneric for squared Euclidean distances:
// out[r*ldo+l] = Σ_t (a[r*lda+t] − b[l*ldb+t])², t-ascending from +0.
func sqDistTileGeneric(out []float64, ldo int, a []float64, lda int, b []float64, ldb, k int) {
	for r := 0; r < 4; r++ {
		x := a[r*lda : r*lda+k]
		for l := 0; l < 4; l++ {
			y := b[l*ldb : l*ldb+k]
			var s float64
			for t, v := range x {
				d := v - y[t]
				s += d * d
			}
			out[r*ldo+l] = s
		}
	}
}

package matrix

// The assembly kernels (simd_amd64.s). Slices are passed for their base
// pointers: the exported wrappers and the tile callers check every length
// and stride, and the kernels read len(first slice) elements (k for the
// tiles) without bounds checks.

//go:noescape
func addMul4AVX2(o, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64)

//go:noescape
func axpyAVX2(y, x []float64, s float64)

//go:noescape
func subScaledAVX2(y, x []float64, s float64)

//go:noescape
func subMul2AVX2(y []float64, a float64, x []float64, b float64, w []float64)

//go:noescape
func rotateAVX2(x, y []float64, c, s float64)

//go:noescape
func dot4AVX2(r0, r1, r2, r3, v []float64) (s0, s1, s2, s3 float64)

//go:noescape
func abtTileAVX2(out []float64, ldo int, a []float64, lda int, b []float64, ldb, k int)

//go:noescape
func sqDistTileAVX2(out []float64, ldo int, a []float64, lda int, b []float64, ldb, k int)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)

// hasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM state.
func hasAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xgetbv()&6 != 6 { // XMM and YMM state enabled
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

func init() {
	if !hasAVX2() {
		return
	}
	addMul4 = addMul4AVX2
	axpy = axpyAVX2
	subScaled = subScaledAVX2
	subMul2 = subMul2AVX2
	rotate = rotateAVX2
	dot4 = dot4AVX2
	abtTile = abtTileAVX2
	sqDistTile = sqDistTileAVX2
	haveVectors = true
}

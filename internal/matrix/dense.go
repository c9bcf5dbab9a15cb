// Package matrix provides the dense and sparse (CSR) float64 matrices used
// by the alignment algorithms. It is deliberately small: just the operations
// the algorithms need, implemented with contiguous row-major storage.
package matrix

import (
	"fmt"
	"math"

	"graphalign/internal/parallel"
)

// parallelFlops is the approximate multiply-add count above which the
// multiplication kernels fan rows out across the worker pool. Below it the
// goroutine handoff costs more than it saves. Row-blocked parallelism keeps
// results bitwise identical to the serial kernels: each output row is
// computed by exactly one goroutine in the same inner-loop order.
const parallelFlops = 1 << 21

// rowBlocks runs rows(lo, hi) over [0, n): row-blocked across the worker
// pool when work reaches parallelFlops, else serially in one call.
func rowBlocks(work, n int, rows func(lo, hi int)) {
	if work >= parallelFlops {
		parallel.Blocks(0, n, rows)
	} else {
		rows(0, n)
	}
}

// Dense is a row-major dense matrix of float64.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols
}

// NewDense allocates a zeroed Rows x Cols matrix.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("matrix: invalid shape %dx%d", rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// DenseFromRows builds a Dense from a slice of equal-length rows.
func DenseFromRows(rows [][]float64) *Dense {
	r := len(rows)
	if r == 0 {
		return NewDense(0, 0)
	}
	c := len(rows[0])
	m := NewDense(r, c)
	for i, row := range rows {
		if len(row) != c {
			panic("matrix: ragged rows")
		}
		copy(m.Row(i), row)
	}
	return m
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add increments element (i, j) by v.
func (m *Dense) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Row returns a view of row i (aliases internal storage).
func (m *Dense) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	c := NewDense(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Fill sets every element to v.
func (m *Dense) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// Scale multiplies every element by s in place and returns m.
func (m *Dense) Scale(s float64) *Dense {
	for i := range m.Data {
		m.Data[i] *= s
	}
	return m
}

// AddScaled adds s*other to m element-wise in place and returns m.
func (m *Dense) AddScaled(other *Dense, s float64) *Dense {
	m.mustSameShape(other)
	for i, v := range other.Data {
		m.Data[i] += s * v
	}
	return m
}

// T returns the transpose as a new matrix.
func (m *Dense) T() *Dense {
	return m.TTo(NewDense(m.Cols, m.Rows))
}

// TTo writes the transpose into t (m.Cols x m.Rows, overwritten; it must
// not alias m) and returns t.
func (m *Dense) TTo(t *Dense) *Dense {
	t.mustShape(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.Data[j*t.Cols+i] = v
		}
	}
	return t
}

// Mul returns a*b. Large products are row-blocked across the worker pool;
// the result is bitwise identical to the serial computation.
func Mul(a, b *Dense) *Dense {
	return MulTo(NewDense(a.Rows, b.Cols), a, b)
}

// MulTo writes a*b into out (a.Rows x b.Cols, overwritten; it must not
// alias a or b) and returns out, so iterative callers reuse one buffer.
// Each element sums a(i,k)*b(k,j) over the nonzero a(i,k) in ascending k,
// starting from +0 — bitwise the textbook triple loop with a zero skip —
// for any worker count.
func MulTo(out, a, b *Dense) *Dense {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("matrix: mul shape mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out.mustShape(a.Rows, b.Cols)
	rowBlocks(a.Rows*a.Cols*b.Cols, a.Rows, func(lo, hi int) { mulKernel(out, a, b, lo, hi) })
	return out
}

// mulKernel computes rows [lo, hi) of out = a*b. The nonzero k of a row are
// gathered first and applied four at a time through addMul4: each output
// element is loaded once per four b rows and its four products are added in
// ascending k, so the per-element summation order is that of the
// one-k-at-a-time loop while the loads and stores of out drop fourfold.
func mulKernel(out, a, b *Dense, lo, hi int) {
	n := b.Cols
	ks := make([]int, 0, a.Cols)
	for i := lo; i < hi; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		clear(orow)
		ks = ks[:0]
		for k, av := range arow {
			if av != 0 {
				ks = append(ks, k)
			}
		}
		p := 0
		for ; p+4 <= len(ks); p += 4 {
			k0, k1, k2, k3 := ks[p], ks[p+1], ks[p+2], ks[p+3]
			addMul4(orow, b.Data[k0*n:(k0+1)*n], b.Data[k1*n:(k1+1)*n], b.Data[k2*n:(k2+1)*n], b.Data[k3*n:(k3+1)*n],
				arow[k0], arow[k1], arow[k2], arow[k3])
		}
		for ; p < len(ks); p++ {
			k := ks[p]
			axpy(orow, b.Data[k*n:(k+1)*n], arow[k])
		}
	}
}

// MulABT returns a * bᵀ, i.e. out[i][j] = <a.Row(i), b.Row(j)>. Large
// products are row-blocked across the worker pool; the result is bitwise
// identical to the serial computation.
func MulABT(a, b *Dense) *Dense {
	return MulABTTo(NewDense(a.Rows, b.Rows), a, b)
}

// MulABTTo writes a * bᵀ into out (a.Rows x b.Rows, overwritten; it must
// not alias a or b) and returns out. Each element is the dot product
// accumulated in ascending k from +0, for any worker count.
func MulABTTo(out, a, b *Dense) *Dense {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("matrix: mulABT shape mismatch %dx%d, %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out.mustShape(a.Rows, b.Rows)
	rowBlocks(a.Rows*a.Cols*b.Rows, a.Rows, func(lo, hi int) { tiled(out, a, b, lo, hi, abtTile, Dot) })
	return out
}

// tiled computes rows [lo, hi) of an a.Rows x b.Rows output whose element
// (i, j) is a reduction of row i of a against row j of b: tile writes four
// rows by four columns at a time, one column per SIMD lane, and single
// computes the columns past the last multiple of four. The last rows of a
// block that do not fill a tile repeat one row through a zero stride.
func tiled(out, a, b *Dense, lo, hi int, tile func(out []float64, ldo int, a []float64, lda int, b []float64, ldb, k int), single func(x, y []float64) float64) {
	d, m := a.Cols, b.Rows
	m4 := m &^ 3
	for i := lo; i < hi; {
		rows, lda, ldo := 4, d, m
		if hi-i < 4 {
			rows, lda, ldo = 1, 0, 0
		}
		x := a.Data[i*d : (i+rows)*d]
		o := out.Data[i*m : (i+rows)*m]
		for j := 0; j < m4; j += 4 {
			tile(o[j:], ldo, x, lda, b.Data[j*d:(j+4)*d], d, d)
		}
		for r := 0; r < rows; r++ {
			xr := x[r*d : (r+1)*d]
			for j := m4; j < m; j++ {
				o[r*m+j] = single(xr, b.Row(j))
			}
		}
		i += rows
	}
}

// PairwiseSqDist returns the a.Rows x b.Rows matrix of squared Euclidean
// distances between rows of a and rows of b. Large products are row-blocked
// across the worker pool; each output row is computed by exactly one
// goroutine with the same inner-loop order as the serial kernel, so the
// result is bitwise identical for any worker count. This is the shared
// kernel behind the embedding-based similarity matrices (REGAL, CONE) and
// the dense fallback of the sparse assignment pipeline.
func PairwiseSqDist(a, b *Dense) *Dense {
	return PairwiseSqDistTo(NewDense(a.Rows, b.Rows), a, b)
}

// PairwiseSqDistTo writes the squared distances of PairwiseSqDist into out
// (a.Rows x b.Rows, overwritten; it must not alias a or b) and returns out,
// so iterative callers reuse one buffer.
func PairwiseSqDistTo(out, a, b *Dense) *Dense {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("matrix: pairwiseSqDist dim mismatch %dx%d, %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out.mustShape(a.Rows, b.Rows)
	rowBlocks(a.Rows*a.Cols*b.Rows, a.Rows, func(lo, hi int) {
		tiled(out, a, b, lo, hi, sqDistTile, SqDist)
	})
	return out
}

// SqDistInto writes the squared Euclidean distance from q to every row of b
// into out (len b.Rows) and is the single-row kernel behind PairwiseSqDist:
// rows go through SqDist8 eight at a time and the tail through SqDist, so
// every value is bitwise the one-chain SqDist.
func SqDistInto(out, q []float64, b *Dense) {
	if len(q) != b.Cols {
		panic(fmt.Sprintf("matrix: sqDistInto dim mismatch %d vs %dx%d", len(q), b.Rows, b.Cols))
	}
	if len(out) != b.Rows {
		panic(fmt.Sprintf("matrix: sqDistInto out length %d, want %d", len(out), b.Rows))
	}
	d := b.Cols
	j := 0
	for ; j+8 <= b.Rows; j += 8 {
		out[j], out[j+1], out[j+2], out[j+3], out[j+4], out[j+5], out[j+6], out[j+7] = SqDist8(q, b.Data[j*d:(j+8)*d])
	}
	for ; j < b.Rows; j++ {
		out[j] = SqDist(q, b.Row(j))
	}
}

// SqDist returns the squared Euclidean distance between q and r[:len(q)],
// accumulated dimension-ascending in one chain: the reference every
// distance kernel here is bitwise equal to.
func SqDist(q, r []float64) float64 {
	r = r[:len(q)]
	var s float64
	for k, v := range q {
		d := v - r[k]
		s += d * d
	}
	return s
}

// SqDist8 returns the squared distances from q to the eight consecutive
// len(q)-wide rows of block, each accumulated dimension-ascending in its own
// chain, so each is bitwise SqDist. The eight chains are interleaved: one
// load of q feeds eight independent accumulators, which hides the FP add
// latency. Callers that compare each distance while it is still in a
// register (the sparse pipeline's fused k-NN scan) call it directly.
func SqDist8(q, block []float64) (s0, s1, s2, s3, s4, s5, s6, s7 float64) {
	d := len(q)
	// Re-slicing each row to len(q) lets the compiler prove k in bounds for
	// every load below.
	r0 := block[0:d:d][:d]
	r1 := block[d : 2*d : 2*d][:d]
	r2 := block[2*d : 3*d : 3*d][:d]
	r3 := block[3*d : 4*d : 4*d][:d]
	r4 := block[4*d : 5*d : 5*d][:d]
	r5 := block[5*d : 6*d : 6*d][:d]
	r6 := block[6*d : 7*d : 7*d][:d]
	r7 := block[7*d : 8*d : 8*d][:d]
	for k, v := range q {
		d0 := v - r0[k]
		s0 += d0 * d0
		d1 := v - r1[k]
		s1 += d1 * d1
		d2 := v - r2[k]
		s2 += d2 * d2
		d3 := v - r3[k]
		s3 += d3 * d3
		d4 := v - r4[k]
		s4 += d4 * d4
		d5 := v - r5[k]
		s5 += d5 * d5
		d6 := v - r6[k]
		s6 += d6 * d6
		d7 := v - r7[k]
		s7 += d7 * d7
	}
	return
}

// MulVec returns m*x.
func (m *Dense) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic("matrix: mulvec shape mismatch")
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// FrobNorm returns the Frobenius norm.
func (m *Dense) FrobNorm() float64 {
	var s float64
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// Sum returns the sum of all elements.
func (m *Dense) Sum() float64 {
	var s float64
	for _, v := range m.Data {
		s += v
	}
	return s
}

// RowSums returns the vector of row sums.
func (m *Dense) RowSums() []float64 {
	out := make([]float64, m.Rows)
	for i := range out {
		var s float64
		for _, v := range m.Row(i) {
			s += v
		}
		out[i] = s
	}
	return out
}

// ColSums returns the vector of column sums.
func (m *Dense) ColSums() []float64 {
	out := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out[j] += v
		}
	}
	return out
}

// Outer returns the outer product u vᵀ.
func Outer(u, v []float64) *Dense {
	out := NewDense(len(u), len(v))
	for i, uv := range u {
		if uv == 0 {
			continue
		}
		row := out.Row(i)
		for j, vv := range v {
			row[j] = uv * vv
		}
	}
	return out
}

// AddOuterScaled adds s * u vᵀ to m in place.
func (m *Dense) AddOuterScaled(u, v []float64, s float64) {
	if len(u) != m.Rows || len(v) != m.Cols {
		panic("matrix: addOuter shape mismatch")
	}
	for i, uv := range u {
		c := s * uv
		if c == 0 {
			continue
		}
		row := m.Row(i)
		for j, vv := range v {
			row[j] += c * vv
		}
	}
}

func (m *Dense) mustShape(rows, cols int) {
	if m.Rows != rows || m.Cols != cols {
		panic(fmt.Sprintf("matrix: shape %dx%d, want %dx%d", m.Rows, m.Cols, rows, cols))
	}
}

func (m *Dense) mustSameShape(o *Dense) {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		panic(fmt.Sprintf("matrix: shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, o.Rows, o.Cols))
	}
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("matrix: dot length mismatch")
	}
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	return math.Sqrt(Dot(v, v))
}

// Normalize scales v to unit Euclidean norm in place and returns its
// original norm. A zero vector is left unchanged.
func Normalize(v []float64) float64 {
	n := Norm2(v)
	if n == 0 {
		return 0
	}
	for i := range v {
		v[i] /= n
	}
	return n
}

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

// Hadamard multiplies m element-wise by other in place and returns m.
func (m *Dense) Hadamard(other *Dense) *Dense {
	m.mustSameShape(other)
	for i, v := range other.Data {
		m.Data[i] *= v
	}
	return m
}

// T returns the transpose as a new matrix.
func (m *Dense) T() *Dense {
	t := NewDense(m.Cols, m.Rows)
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
	mulRows := func(lo, hi int) { mulKernel(out, a, b, lo, hi) }
	if work := a.Rows * a.Cols * b.Cols; work >= parallelFlops {
		parallel.Blocks(0, a.Rows, mulRows)
	} else {
		mulRows(0, a.Rows)
	}
	return out
}

// mulKernel computes rows [lo, hi) of out = a*b. The nonzero k of a row are
// gathered first and applied four at a time: each output element is loaded
// once per four b rows and its four products are added in ascending k, so
// the per-element summation order is that of the one-k-at-a-time loop
// while the loads and stores of out drop fourfold.
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
			a0, a1, a2, a3 := arow[k0], arow[k1], arow[k2], arow[k3]
			b0 := b.Data[k0*n : (k0+1)*n : (k0+1)*n][:len(orow)]
			b1 := b.Data[k1*n : (k1+1)*n : (k1+1)*n][:len(orow)]
			b2 := b.Data[k2*n : (k2+1)*n : (k2+1)*n][:len(orow)]
			b3 := b.Data[k3*n : (k3+1)*n : (k3+1)*n][:len(orow)]
			for j := range orow {
				o := orow[j]
				o += a0 * b0[j]
				o += a1 * b1[j]
				o += a2 * b2[j]
				o += a3 * b3[j]
				orow[j] = o
			}
		}
		for ; p < len(ks); p++ {
			k := ks[p]
			av := arow[k]
			brow := b.Data[k*n : (k+1)*n : (k+1)*n][:len(orow)]
			for j, bv := range brow {
				orow[j] += av * bv
			}
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
	mulRows := func(lo, hi int) { mulABTKernel(out, a, b, lo, hi) }
	if work := a.Rows * a.Cols * b.Rows; work >= parallelFlops {
		parallel.Blocks(0, a.Rows, mulRows)
	} else {
		mulRows(0, a.Rows)
	}
	return out
}

// mulABTKernel computes rows [lo, hi) of out = a*bᵀ in 2x4 tiles: two rows
// of a against four rows of b with eight independent accumulator chains,
// which hides the FP add latency and loads each a and b value once per tile
// instead of once per dot product. Every chain still runs k-ascending, so
// each element is bitwise the plain dot product. An odd last row and the
// columns past the last multiple of four fall back to single chains.
func mulABTKernel(out, a, b *Dense, lo, hi int) {
	d := a.Cols
	m := b.Rows
	i := lo
	for ; i+2 <= hi; i += 2 {
		x0 := a.Row(i)
		x1 := a.Row(i + 1)[:len(x0)]
		o0, o1 := out.Row(i), out.Row(i+1)
		j := 0
		for ; j+4 <= m; j += 4 {
			base := j * d
			y0 := b.Data[base : base+d : base+d][:len(x0)]
			y1 := b.Data[base+d : base+2*d : base+2*d][:len(x0)]
			y2 := b.Data[base+2*d : base+3*d : base+3*d][:len(x0)]
			y3 := b.Data[base+3*d : base+4*d : base+4*d][:len(x0)]
			var s00, s01, s02, s03, s10, s11, s12, s13 float64
			for k, u := range x0 {
				v := x1[k]
				c0, c1, c2, c3 := y0[k], y1[k], y2[k], y3[k]
				s00 += u * c0
				s01 += u * c1
				s02 += u * c2
				s03 += u * c3
				s10 += v * c0
				s11 += v * c1
				s12 += v * c2
				s13 += v * c3
			}
			o0[j], o0[j+1], o0[j+2], o0[j+3] = s00, s01, s02, s03
			o1[j], o1[j+1], o1[j+2], o1[j+3] = s10, s11, s12, s13
		}
		for ; j < m; j++ {
			y := b.Row(j)[:len(x0)]
			var s0, s1 float64
			for k, u := range x0 {
				s0 += u * y[k]
				s1 += x1[k] * y[k]
			}
			o0[j], o1[j] = s0, s1
		}
	}
	if i < hi {
		x := a.Row(i)
		orow := out.Row(i)
		for j := 0; j < m; j++ {
			orow[j] = Dot(x, b.Row(j))
		}
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
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("matrix: pairwiseSqDist dim mismatch %dx%d, %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewDense(a.Rows, b.Rows)
	distRows := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			SqDistInto(out.Row(i), a.Row(i), b)
		}
	}
	if work := a.Rows * a.Cols * b.Rows; work >= parallelFlops {
		parallel.Blocks(0, a.Rows, distRows)
	} else {
		distRows(0, a.Rows)
	}
	return out
}

// SqDistInto writes the squared Euclidean distance from q to every row of b
// into out (len b.Rows) and is the single-row kernel behind PairwiseSqDist:
// each distance accumulates dimension-ascending in its own chain, so values
// are bitwise identical to the one-row-at-a-time loop. Rows are processed
// eight at a time — eight independent accumulators hide the FP add latency —
// which is also what makes the sparse pipeline's brute-force candidate scan
// competitive without materializing the full matrix.
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
		base := j * d
		r0 := b.Data[base : base+d : base+d]
		r1 := b.Data[base+d : base+2*d : base+2*d]
		r2 := b.Data[base+2*d : base+3*d : base+3*d]
		r3 := b.Data[base+3*d : base+4*d : base+4*d]
		r4 := b.Data[base+4*d : base+5*d : base+5*d]
		r5 := b.Data[base+5*d : base+6*d : base+6*d]
		r6 := b.Data[base+6*d : base+7*d : base+7*d]
		r7 := b.Data[base+7*d : base+8*d : base+8*d]
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
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
		out[j], out[j+1], out[j+2], out[j+3] = s0, s1, s2, s3
		out[j+4], out[j+5], out[j+6], out[j+7] = s4, s5, s6, s7
	}
	for ; j < b.Rows; j++ {
		rj := b.Row(j)
		var d2 float64
		for k, v := range q {
			d := v - rj[k]
			d2 += d * d
		}
		out[j] = d2
	}
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

// MaxAbs returns the largest absolute element value (0 for empty).
func (m *Dense) MaxAbs() float64 {
	var s float64
	for _, v := range m.Data {
		if a := math.Abs(v); a > s {
			s = a
		}
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

// AxpyVec computes y += s*x in place.
func AxpyVec(y []float64, x []float64, s float64) {
	if len(x) != len(y) {
		panic("matrix: axpy length mismatch")
	}
	for i, v := range x {
		y[i] += s * v
	}
}

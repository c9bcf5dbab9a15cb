package matrix

import (
	"fmt"
	"sort"
)

// CSR is a compressed sparse row matrix of float64.
type CSR struct {
	NumRows, NumCols int
	RowPtr           []int     // len NumRows+1
	ColIdx           []int     // len nnz, sorted within each row
	Val              []float64 // len nnz
}

// coo is an intermediate triple used during construction.
type coo struct {
	r, c int
	v    float64
}

// NewCSR builds a CSR matrix from coordinate triples. Duplicate (r, c)
// entries are summed.
func NewCSR(rows, cols int, rIdx, cIdx []int, vals []float64) (*CSR, error) {
	if len(rIdx) != len(cIdx) || len(rIdx) != len(vals) {
		return nil, fmt.Errorf("matrix: coordinate slices of unequal length")
	}
	entries := make([]coo, len(rIdx))
	for i := range rIdx {
		if rIdx[i] < 0 || rIdx[i] >= rows || cIdx[i] < 0 || cIdx[i] >= cols {
			return nil, fmt.Errorf("matrix: entry (%d,%d) out of %dx%d", rIdx[i], cIdx[i], rows, cols)
		}
		entries[i] = coo{rIdx[i], cIdx[i], vals[i]}
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].r != entries[j].r {
			return entries[i].r < entries[j].r
		}
		return entries[i].c < entries[j].c
	})
	m := &CSR{NumRows: rows, NumCols: cols, RowPtr: make([]int, rows+1)}
	for i := 0; i < len(entries); {
		j := i
		v := 0.0
		for j < len(entries) && entries[j].r == entries[i].r && entries[j].c == entries[i].c {
			v += entries[j].v
			j++
		}
		m.ColIdx = append(m.ColIdx, entries[i].c)
		m.Val = append(m.Val, v)
		m.RowPtr[entries[i].r+1]++
		i = j
	}
	for r := 0; r < rows; r++ {
		m.RowPtr[r+1] += m.RowPtr[r]
	}
	return m, nil
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.Val) }

// RowRange returns the column indices and values of row r as views.
func (m *CSR) RowRange(r int) (cols []int, vals []float64) {
	lo, hi := m.RowPtr[r], m.RowPtr[r+1]
	return m.ColIdx[lo:hi], m.Val[lo:hi]
}

// MulVec returns m*x.
func (m *CSR) MulVec(x []float64) []float64 {
	if len(x) != m.NumCols {
		panic("matrix: csr mulvec shape mismatch")
	}
	out := make([]float64, m.NumRows)
	m.MulVecTo(out, x)
	return out
}

// MulVecTo computes out = m*x, reusing out (which must have length NumRows).
func (m *CSR) MulVecTo(out, x []float64) {
	for r := 0; r < m.NumRows; r++ {
		lo, hi := m.RowPtr[r], m.RowPtr[r+1]
		var s float64
		for k := lo; k < hi; k++ {
			s += m.Val[k] * x[m.ColIdx[k]]
		}
		out[r] = s
	}
}

// MulDense returns m * d as a new dense matrix (m is NumRows x NumCols,
// d is NumCols x d.Cols).
func (m *CSR) MulDense(d *Dense) *Dense {
	return m.MulDenseTo(NewDense(m.NumRows, d.Cols), d)
}

// MulDenseTo writes m * d into out (NumRows x d.Cols, overwritten; it must
// not alias d) and returns out, so iterative callers reuse one buffer.
// Each output element adds v·d(c, j) over the row's nonzeros in stored
// order from +0; the nonzeros go through AddMul4 four at a time, which
// keeps that order. Large products are row-blocked across the worker pool
// (each goroutine owns a contiguous range of output rows); the result is
// bitwise identical to the serial computation.
func (m *CSR) MulDenseTo(out, d *Dense) *Dense {
	if m.NumCols != d.Rows {
		panic(fmt.Sprintf("matrix: csr muldense shape mismatch %dx%d * %dx%d", m.NumRows, m.NumCols, d.Rows, d.Cols))
	}
	out.mustShape(m.NumRows, d.Cols)
	rowBlocks(m.NNZ()*d.Cols, m.NumRows, func(lo0, hi0 int) {
		for r := lo0; r < hi0; r++ {
			cols, vals := m.RowRange(r)
			orow := out.Row(r)
			clear(orow)
			k := 0
			for ; k+4 <= len(cols); k += 4 {
				addMul4(orow, d.Row(cols[k]), d.Row(cols[k+1]), d.Row(cols[k+2]), d.Row(cols[k+3]),
					vals[k], vals[k+1], vals[k+2], vals[k+3])
			}
			for ; k < len(cols); k++ {
				axpy(orow, d.Row(cols[k]), vals[k])
			}
		}
	})
	return out
}

// T returns the transpose as a new CSR matrix.
func (m *CSR) T() *CSR {
	rIdx := make([]int, 0, m.NNZ())
	cIdx := make([]int, 0, m.NNZ())
	vals := make([]float64, 0, m.NNZ())
	for r := 0; r < m.NumRows; r++ {
		lo, hi := m.RowPtr[r], m.RowPtr[r+1]
		for k := lo; k < hi; k++ {
			rIdx = append(rIdx, m.ColIdx[k])
			cIdx = append(cIdx, r)
			vals = append(vals, m.Val[k])
		}
	}
	t, err := NewCSR(m.NumCols, m.NumRows, rIdx, cIdx, vals)
	if err != nil {
		panic(err) // construction from a valid CSR cannot fail
	}
	return t
}

// ToDense materializes the matrix densely.
func (m *CSR) ToDense() *Dense {
	d := NewDense(m.NumRows, m.NumCols)
	for r := 0; r < m.NumRows; r++ {
		lo, hi := m.RowPtr[r], m.RowPtr[r+1]
		row := d.Row(r)
		for k := lo; k < hi; k++ {
			row[m.ColIdx[k]] = m.Val[k]
		}
	}
	return d
}

// ScaleRows multiplies row r by s[r] in place and returns m.
func (m *CSR) ScaleRows(s []float64) *CSR {
	if len(s) != m.NumRows {
		panic("matrix: scalerows length mismatch")
	}
	for r := 0; r < m.NumRows; r++ {
		lo, hi := m.RowPtr[r], m.RowPtr[r+1]
		for k := lo; k < hi; k++ {
			m.Val[k] *= s[r]
		}
	}
	return m
}

// Clone returns a deep copy of the matrix.
func (m *CSR) Clone() *CSR {
	return &CSR{
		NumRows: m.NumRows,
		NumCols: m.NumCols,
		RowPtr:  append([]int(nil), m.RowPtr...),
		ColIdx:  append([]int(nil), m.ColIdx...),
		Val:     append([]float64(nil), m.Val...),
	}
}

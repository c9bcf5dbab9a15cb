package isorank

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"graphalign/internal/matrix"
)

// mulDenseCSRTReference is mulDenseCSRT as it stood before its loops were
// swapped: the CSR row outermost, so each output column is written with a
// stride. It is kept as the oracle for the row-major kernel.
func mulDenseCSRTReference(d *matrix.Dense, s *matrix.CSR) *matrix.Dense {
	// out[i][r] = sum_k d[i][k] * s[r][k]
	out := matrix.NewDense(d.Rows, s.NumRows)
	for r := 0; r < s.NumRows; r++ {
		cols, vals := s.RowRange(r)
		for i := 0; i < d.Rows; i++ {
			drow := d.Row(i)
			var acc float64
			for k, c := range cols {
				acc += drow[c] * vals[k]
			}
			out.Row(i)[r] = acc
		}
	}
	return out
}

// randomCSR draws a rows x cols sparse matrix whose entries are each set
// with probability density, so some rows are empty.
func randomCSR(rows, cols int, density float64, rng *rand.Rand) *matrix.CSR {
	var ri, ci []int
	var vals []float64
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if rng.Float64() < density {
				ri, ci = append(ri, r), append(ci, c)
				vals = append(vals, rng.NormFloat64())
			}
		}
	}
	s, err := matrix.NewCSR(rows, cols, ri, ci, vals)
	if err != nil {
		panic(err)
	}
	return s
}

// TestMulDenseCSRTMatchesReferenceBitwise pins the row-major kernel to the
// column-strided reference, writing into a buffer that holds stale values.
func TestMulDenseCSRTMatchesReferenceBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 5, 66, 201} {
		for _, m := range []int{1, 3, n} {
			d := matrix.NewDense(n, m)
			for i := range d.Data {
				d.Data[i] = rng.NormFloat64()
			}
			s := randomCSR(m, m, 0.1, rng)
			want := mulDenseCSRTReference(d, s)
			got := matrix.NewDense(n, m)
			got.Fill(math.NaN())
			mulDenseCSRT(got, d, s)
			for i := range got.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
					t.Fatalf("%s: [%d] = %v, reference %v", fmt.Sprintf("%dx%d", n, m), i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}

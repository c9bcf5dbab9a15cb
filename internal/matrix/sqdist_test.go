package matrix

import (
	"math/rand"
	"testing"
)

func naivePairwiseSqDist(a, b *Dense) *Dense {
	out := NewDense(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				d := a.At(i, k) - b.At(j, k)
				s += d * d
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func TestPairwiseSqDistMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n, m, d := 1+rng.Intn(12), 1+rng.Intn(12), 1+rng.Intn(6)
		a, b := NewDense(n, d), NewDense(m, d)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		for i := range b.Data {
			b.Data[i] = rng.NormFloat64()
		}
		got := PairwiseSqDist(a, b)
		want := naivePairwiseSqDist(a, b)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("trial %d: flat %d: %v != %v", trial, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestPairwiseSqDistParallelIdentical(t *testing.T) {
	// 128*128*128 = 2^21 = parallelFlops: exactly at the row-blocked gate.
	// The parallel result must be bitwise identical to the naive serial loop.
	rng := rand.New(rand.NewSource(4))
	a, b := NewDense(128, 128), NewDense(128, 128)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	got := PairwiseSqDist(a, b)
	want := naivePairwiseSqDist(a, b)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("flat %d: %v != %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestPairwiseSqDistZeroDistanceDiagonal(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := NewDense(10, 5)
	for i := range a.Data {
		a.Data[i] = rng.Float64()
	}
	d := PairwiseSqDist(a, a)
	for i := 0; i < a.Rows; i++ {
		if d.At(i, i) != 0 {
			t.Fatalf("d(%d,%d) = %v, want exactly 0", i, i, d.At(i, i))
		}
	}
}

// oneChain is the reference every distance kernel must equal bitwise: the
// squared distance accumulated dimension-ascending in a single chain.
func oneChain(q, r []float64) float64 {
	var s float64
	for k := range q {
		d := q[k] - r[k]
		s += d * d
	}
	return s
}

// SqDist, SqDist8 and SqDistInto are bitwise the one-chain reference at
// widths around the eight-chain block and a wide one, over row counts that
// leave a tail past the last block of eight.
func TestSqDistKernelsMatchOneChain(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, d := range []int{1, 2, 7, 8, 9, 103} {
		for _, rows := range []int{3, 13, 21} {
			q := make([]float64, d)
			for k := range q {
				q[k] = rng.NormFloat64()
			}
			b := NewDense(rows, d)
			for i := range b.Data {
				b.Data[i] = rng.NormFloat64() * 3
			}
			want := make([]float64, rows)
			for j := range want {
				want[j] = oneChain(q, b.Row(j))
				if got := SqDist(q, b.Row(j)); got != want[j] {
					t.Fatalf("d=%d rows=%d: SqDist row %d = %v, want %v", d, rows, j, got, want[j])
				}
			}
			for j := 0; j+8 <= rows; j += 8 {
				s0, s1, s2, s3, s4, s5, s6, s7 := SqDist8(q, b.Data[j*d:(j+8)*d])
				for o, got := range []float64{s0, s1, s2, s3, s4, s5, s6, s7} {
					if got != want[j+o] {
						t.Fatalf("d=%d rows=%d: SqDist8 row %d = %v, want %v", d, rows, j+o, got, want[j+o])
					}
				}
			}
			got := make([]float64, rows)
			SqDistInto(got, q, b)
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("d=%d rows=%d: SqDistInto row %d = %v, want %v", d, rows, j, got[j], want[j])
				}
			}
		}
	}
}

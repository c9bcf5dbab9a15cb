package assign

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"graphalign/internal/matrix"
)

// scoreRowReference is FactorEmbedding.ScoreRow as it stood before the
// four-term kernel: one term at a time, each a full pass over the row. It
// is kept as the oracle for the blocked kernel.
func scoreRowReference(f *FactorEmbedding, i int, buf []float64) []float64 {
	for j := range buf {
		buf[j] = 0
	}
	for t := range f.Us {
		w := f.weight(t) * f.Us[t][i]
		if w == 0 {
			continue
		}
		for j, vv := range f.Vs[t] {
			buf[j] += w * vv
		}
	}
	return buf
}

// similarityReference is FactorEmbedding.Similarity as it stood before it
// filled rows with ScoreRow: one matrix.AddOuterScaled per term, in term
// order.
func similarityReference(f *FactorEmbedding) *matrix.Dense {
	sim := matrix.NewDense(f.Shape())
	for t := range f.Us {
		sim.AddOuterScaled(f.Us[t], f.Vs[t], f.weight(t))
	}
	return sim
}

// sameBits reports whether two slices agree bit for bit (NaN payloads
// included).
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// referenceFactor draws a rank-r factor whose coefficients are zero in
// about a third of the (term, row) pairs, with some zero weights, and whose
// Vs hold NaN and ±Inf only where every coefficient in front of them is
// zero: term 0's weight is zero, and row 0's Us entries are zero in every
// term with a non-finite Vs entry.
func referenceFactor(n, m, r int, weights bool, rng *rand.Rand) *FactorEmbedding {
	f := &FactorEmbedding{}
	for t := 0; t < r; t++ {
		u := make([]float64, n)
		v := make([]float64, m)
		for i := range u {
			if rng.Intn(3) > 0 {
				u[i] = rng.NormFloat64()
			}
		}
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		if t == 0 || (t%3 == 2 && n > 0) {
			// Non-finite Vs behind a zero coefficient: the zero weight of
			// term 0, or the zeroed row 0 of every third term.
			v[rng.Intn(m)] = math.NaN()
			v[rng.Intn(m)] = math.Inf(1)
			v[rng.Intn(m)] = math.Inf(-1)
			u[0] = 0
		}
		f.Us = append(f.Us, u)
		f.Vs = append(f.Vs, v)
		if weights {
			w := rng.NormFloat64()
			if t == 0 || rng.Intn(5) == 0 {
				w = 0
			}
			f.Weights = append(f.Weights, w)
		}
	}
	if !weights {
		// Without weights term 0 is zeroed through its coefficients.
		clear(f.Us[0])
	}
	return f
}

// TestFactorScoringMatchesReference pins ScoreRow, Score and Similarity
// bitwise to the one-term-at-a-time row and the AddOuterScaled
// densification, at every rank from 1 to 9 (each tail of the four-term
// block) and with zero coefficients guarding NaN and ±Inf in Vs.
func TestFactorScoringMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for r := 1; r <= 9; r++ {
		for _, weights := range []bool{true, false} {
			name := fmt.Sprintf("rank %d weights %v", r, weights)
			n, m := 1+rng.Intn(9), 1+rng.Intn(13)
			f := referenceFactor(n, m, r, weights, rng)
			got := f.Similarity()
			want := similarityReference(f)
			if got.Rows != want.Rows || got.Cols != want.Cols || !sameBits(got.Data, want.Data) {
				t.Fatalf("%s: Similarity differs from the AddOuterScaled densification", name)
			}
			buf := make([]float64, m)
			ref := make([]float64, m)
			for i := 0; i < n; i++ {
				for j := range buf {
					buf[j] = math.NaN() // stale scratch must not leak
				}
				row := f.ScoreRow(i, buf)
				if !sameBits(row, scoreRowReference(f, i, ref)) {
					t.Fatalf("%s, row %d: ScoreRow %v, reference %v", name, i, row, ref)
				}
				for j := range row {
					if s := f.Score(i, j); math.Float64bits(s) != math.Float64bits(row[j]) {
						t.Fatalf("%s: Score(%d,%d) = %v, ScoreRow has %v", name, i, j, s, row[j])
					}
				}
			}
			for j := 0; j < m; j++ {
				if math.IsNaN(got.At(0, j)) || math.IsInf(got.At(0, j), 0) {
					t.Fatalf("%s: non-finite Vs leaked past a zero coefficient into (0,%d)", name, j)
				}
			}
		}
	}
}

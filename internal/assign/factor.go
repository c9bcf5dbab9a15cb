package assign

import (
	"errors"
	"fmt"

	"graphalign/internal/matrix"
)

// FactorEmbedding is a similarity matrix in low-rank outer-product form:
//
//	S = Σ_t Weights[t] · Us[t] Vs[t]ᵀ
//
// Aligners whose similarity is an explicit factor product — NSD's iterated
// degree-vector outer products, LREA's factored power iteration — return
// it from algo.ScoringAligner, so the sparse pipeline scores candidates
// against the factors directly and never materializes the Rows x Cols
// product. Unlike Embedding, the two sides are asymmetric: Us rows live in
// source space, Vs rows in target space, and similarity is the weighted
// inner product rather than a function of distance.
//
// The terms are ordered: ScoreRow, and Similarity through it, accumulate
// them in index order with the exact floating-point schedule of
// matrix.AddOuterScaled, so the factored and densified paths agree bitwise.
type FactorEmbedding struct {
	// Us[t] has len Rows, Vs[t] len Cols.
	Us, Vs [][]float64
	// Weights scales each term; nil means every term has weight 1.
	Weights []float64
}

// Shape implements Scorer (0 x 0 for an empty factor list).
func (f *FactorEmbedding) Shape() (int, int) {
	if len(f.Us) == 0 {
		return 0, 0
	}
	return len(f.Us[0]), len(f.Vs[0])
}

// Rank returns the number of rank-one terms.
func (f *FactorEmbedding) Rank() int { return len(f.Us) }

// weight returns term t's scale.
func (f *FactorEmbedding) weight(t int) float64 {
	if f.Weights == nil {
		return 1
	}
	return f.Weights[t]
}

// Similarity materializes the dense similarity matrix from the factors —
// the fallback of the sparse pipeline when the candidate graph is
// unmatchable, and the aligner's own dense path — one ScoreRow per row.
func (f *FactorEmbedding) Similarity() *matrix.Dense {
	sim := matrix.NewDense(f.Shape())
	for i := 0; i < sim.Rows; i++ {
		f.ScoreRow(i, sim.Row(i))
	}
	return sim
}

// Bytes estimates the retained size of the factor lists, for cache
// accounting.
func (f *FactorEmbedding) Bytes() int64 {
	n, m := f.Shape()
	return int64(8 * (len(f.Us)*(n+m) + len(f.Weights)))
}

// Clone returns a deep copy, so cached factor bundles can hand out private
// instances.
func (f *FactorEmbedding) Clone() *FactorEmbedding {
	c := &FactorEmbedding{
		Us: make([][]float64, len(f.Us)),
		Vs: make([][]float64, len(f.Vs)),
	}
	for t := range f.Us {
		c.Us[t] = append([]float64(nil), f.Us[t]...)
		c.Vs[t] = append([]float64(nil), f.Vs[t]...)
	}
	if f.Weights != nil {
		c.Weights = append([]float64(nil), f.Weights...)
	}
	return c
}

// ErrStarvedRow is the sentinel under *StarvedRowError: a candidate row was
// left empty by NaN pruning (see TopK), so the sparse exact solve cannot
// proceed and silently falling back to dense JV would mask the defect.
var ErrStarvedRow = errors.New("assign: starved candidate row")

// StarvedRowError reports the first source row whose candidate list came up
// empty after pruning (every score NaN). It unwraps to
// ErrStarvedRow for errors.Is checks.
type StarvedRowError struct {
	Row int
}

func (e *StarvedRowError) Error() string {
	return fmt.Sprintf("assign: row %d has no candidates after NaN pruning", e.Row)
}

func (e *StarvedRowError) Unwrap() error { return ErrStarvedRow }

// ScoreRow implements Scorer: buf accumulates term-ascending, bitwise the
// row matrix.AddOuterScaled would produce term by term. The scaled left
// coefficient w = Weights[t]·Us[t][i] is formed once and a zero skips the
// term, which also skips its (potentially NaN-producing) products. The
// remaining terms are applied four at a time, as matrix.Mul's kernel does:
// each buf[j] is loaded once per four terms and its four products are added
// in ascending t, so every buf[j] is still one independent accumulation
// chain in term order and Score reproduces any single entry bitwise.
func (f *FactorEmbedding) ScoreRow(i int, buf []float64) []float64 {
	clear(buf)
	var w [4]float64
	var v [4][]float64
	n := 0
	for t := range f.Us {
		c := f.weight(t) * f.Us[t][i]
		if c == 0 {
			continue
		}
		w[n], v[n] = c, f.Vs[t]
		if n++; n < 4 {
			continue
		}
		n = 0
		w0, w1, w2, w3 := w[0], w[1], w[2], w[3]
		m := len(buf)
		v0, v1, v2, v3 := v[0][:m], v[1][:m], v[2][:m], v[3][:m]
		for j := range buf {
			o := buf[j]
			o += w0 * v0[j]
			o += w1 * v1[j]
			o += w2 * v2[j]
			o += w3 * v3[j]
			buf[j] = o
		}
	}
	for p := 0; p < n; p++ {
		c, vs := w[p], v[p][:len(buf)]
		for j := range buf {
			buf[j] += c * vs[j]
		}
	}
	return buf
}

// Score implements Scorer with ScoreRow's exact accumulation schedule.
func (f *FactorEmbedding) Score(i, j int) float64 {
	var s float64
	for t := range f.Us {
		w := f.weight(t) * f.Us[t][i]
		if w == 0 {
			continue
		}
		s += w * f.Vs[t][j]
	}
	return s
}

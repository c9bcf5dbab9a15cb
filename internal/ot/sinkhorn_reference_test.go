package ot

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"graphalign/internal/matrix"
)

// sinkhornReference is SinkhornCtx as it stood before the scaling loop was
// blocked: one row-sum pass for u, then one column-sum pass for v, row by
// row. SinkhornCtx must reproduce it bit for bit; it is kept as the oracle.
func sinkhornReference(ctx context.Context, c *matrix.Dense, mu, nu []float64, eps float64, iters int) (*matrix.Dense, error) {
	n, m := c.Rows, c.Cols
	// Kernel K = exp(-C/eps), stabilized row by row: subtracting a per-row
	// constant from C only rescales the row's scaling factor u_i (the plan is
	// invariant), and it pins every row's largest kernel entry at exactly 1,
	// so no row underflows to all zeros however wide the cost range or small
	// eps. A single global minimum leaves rows whose costs sit far above it
	// with uniformly tiny kernels that vanish at small eps.
	k := matrix.NewDense(n, m)
	for i := 0; i < n; i++ {
		crow := c.Row(i)
		minC := math.Inf(1)
		for _, v := range crow {
			if v < minC {
				minC = v
			}
		}
		krow := k.Row(i)
		for j, v := range crow {
			krow[j] = math.Exp(-(v - minC) / eps)
		}
	}
	u := make([]float64, n)
	v := make([]float64, m)
	for i := range u {
		u[i] = 1
	}
	for j := range v {
		v[j] = 1
	}
	const tiny = 1e-300
	for it := 0; it < iters; it++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// u = mu ./ (K v)
		for i := 0; i < n; i++ {
			row := k.Row(i)
			var s float64
			for j, kv := range row {
				s += kv * v[j]
			}
			if s < tiny {
				s = tiny
			}
			u[i] = mu[i] / s
		}
		// v = nu ./ (Kᵀ u)
		for j := 0; j < m; j++ {
			v[j] = 0
		}
		for i := 0; i < n; i++ {
			row := k.Row(i)
			ui := u[i]
			for j, kv := range row {
				v[j] += kv * ui
			}
		}
		for j := 0; j < m; j++ {
			s := v[j]
			if s < tiny {
				s = tiny
			}
			v[j] = nu[j] / s
		}
	}
	t := matrix.NewDense(n, m)
	for i := 0; i < n; i++ {
		krow := k.Row(i)
		trow := t.Row(i)
		ui := u[i]
		for j, kv := range krow {
			trow[j] = ui * kv * v[j]
		}
	}
	return t, nil
}

// sinkhornWithPriorReference is the oracle for sinkhornWithPrior: the same
// two-pass scaling loop over the prior-weighted kernel.
func sinkhornWithPriorReference(ctx context.Context, c, prior, k *matrix.Dense, mu, nu []float64, beta float64, iters int) error {
	n, m := c.Rows, c.Cols
	minC := c.Data[0]
	for _, v := range c.Data {
		if v < minC {
			minC = v
		}
	}
	for i, v := range c.Data {
		k.Data[i] = prior.Data[i] * expStable(-(v-minC)/beta)
	}
	u := make([]float64, n)
	v := make([]float64, m)
	for i := range u {
		u[i] = 1
	}
	for j := range v {
		v[j] = 1
	}
	const tiny = 1e-300
	for it := 0; it < iters; it++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			row := k.Row(i)
			var s float64
			for j, kv := range row {
				s += kv * v[j]
			}
			if s < tiny {
				s = tiny
			}
			u[i] = mu[i] / s
		}
		for j := 0; j < m; j++ {
			v[j] = 0
		}
		for i := 0; i < n; i++ {
			row := k.Row(i)
			ui := u[i]
			for j, kv := range row {
				v[j] += kv * ui
			}
		}
		for j := 0; j < m; j++ {
			s := v[j]
			if s < tiny {
				s = tiny
			}
			v[j] = nu[j] / s
		}
	}
	for i := 0; i < n; i++ {
		krow := k.Row(i)
		trow := prior.Row(i)
		ui := u[i]
		for j, kv := range krow {
			trow[j] = ui * kv * v[j]
		}
	}
	return nil
}

// oracleShapes are the plan shapes the blocked round is pinned on: n x n
// for n = 1, 2, 3, 5, 66 and 201 (each a different remainder mod four
// rows), S-GWL's n x 2 and n x 3 barycenter plans, and a wide 2 x 201
// plan whose columns outnumber its rows.
func oracleShapes() [][2]int {
	var shapes [][2]int
	for _, n := range []int{1, 2, 3, 5, 66, 201} {
		shapes = append(shapes, [2]int{n, n}, [2]int{n, 2}, [2]int{n, 3})
	}
	return append(shapes, [2]int{2, 201})
}

// oracleInput draws a cost matrix and two random marginals. A large spread
// makes whole rows of the prior-weighted kernel underflow, which drives the
// scaling sums onto their tiny floor.
func oracleInput(n, m int, spread float64, seed int64) (*matrix.Dense, []float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	c := matrix.NewDense(n, m)
	for i := range c.Data {
		c.Data[i] = rng.Float64() * spread
	}
	weights := func(k int) []float64 {
		w := make([]float64, k)
		var sum float64
		for i := range w {
			w[i] = 0.5 + rng.Float64()
			sum += w[i]
		}
		for i := range w {
			w[i] /= sum
		}
		return w
	}
	return c, weights(n), weights(m)
}

// TestSinkhornMatchesReferenceBitwise pins the blocked scaling round of
// SinkhornCtx and sinkhornWithPrior to the two-pass reference loops.
func TestSinkhornMatchesReferenceBitwise(t *testing.T) {
	ctx := context.Background()
	for _, sh := range oracleShapes() {
		n, m := sh[0], sh[1]
		for _, spread := range []float64{1, 1000} {
			name := fmt.Sprintf("%dx%d spread %g", n, m, spread)
			c, mu, nu := oracleInput(n, m, spread, int64(n*1000+m))
			got, err := SinkhornCtx(ctx, c, mu, nu, 0.05, 50)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := sinkhornReference(ctx, c, mu, nu, 0.05, 50)
			samePlan(t, name+" Sinkhorn", got, want)

			prior, _ := SinkhornCtx(ctx, c, mu, nu, 1, 5)
			refPrior := prior.Clone()
			k, refK := matrix.NewDense(n, m), matrix.NewDense(n, m)
			if err := sinkhornWithPrior(ctx, c, prior, k, mu, nu, 0.1, 30); err != nil {
				t.Fatal(err)
			}
			_ = sinkhornWithPriorReference(ctx, c, refPrior, refK, mu, nu, 0.1, 30)
			samePlan(t, name+" prior", prior, refPrior)
		}
	}
}

func samePlan(t *testing.T, what string, got, want *matrix.Dense) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, reference %dx%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range got.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s[%d] = %v, reference %v", what, i, got.Data[i], want.Data[i])
		}
	}
}

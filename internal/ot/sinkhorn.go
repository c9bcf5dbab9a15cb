// Package ot implements the optimal-transport primitives behind GWL, S-GWL
// and CONE: entropically regularized optimal transport via the Sinkhorn
// algorithm, and the Gromov–Wasserstein discrepancy solved with the
// proximal-point method of Xu et al.
package ot

import (
	"context"
	"math"

	"graphalign/internal/matrix"
)

// SinkhornCtx solves the entropically regularized optimal transport problem
//
//	min_T <C, T> - eps*H(T)   s.t.  T 1 = mu,  Tᵀ 1 = nu
//
// and returns the transport plan T. C is the cost matrix (len(mu) x
// len(nu)), eps the regularization strength, iters the number of
// row/column scaling rounds. Costs are stabilized by subtracting the row
// minimum before exponentiation. Cancellation is checked once per scaling
// round; it returns ctx.Err() and a nil plan when interrupted.
func SinkhornCtx(ctx context.Context, c *matrix.Dense, mu, nu []float64, eps float64, iters int) (*matrix.Dense, error) {
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

// UniformWeights returns the uniform probability vector of length n.
func UniformWeights(n int) []float64 {
	w := make([]float64, n)
	if n == 0 {
		return w
	}
	inv := 1 / float64(n)
	for i := range w {
		w[i] = inv
	}
	return w
}

// DegreeWeights returns node weights proportional to degree+1, normalized
// to sum to one. S-GWL uses degree-biased node distributions.
func DegreeWeights(degrees []int) []float64 {
	w := make([]float64, len(degrees))
	var sum float64
	for i, d := range degrees {
		w[i] = float64(d) + 1
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

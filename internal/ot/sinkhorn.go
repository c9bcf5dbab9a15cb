// Package ot implements the optimal-transport primitives behind GWL, S-GWL
// and CONE: entropically regularized optimal transport via the Sinkhorn
// algorithm, and the Gromov–Wasserstein discrepancy solved with the
// proximal-point method of Xu et al.
package ot

import (
	"context"
	"fmt"
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
// minimum before exponentiation. An eps that is not positive is an error.
// Cancellation is checked once per scaling round; it returns ctx.Err() and
// a nil plan when interrupted.
func SinkhornCtx(ctx context.Context, c *matrix.Dense, mu, nu []float64, eps float64, iters int) (*matrix.Dense, error) {
	if err := checkEps(eps); err != nil {
		return nil, err
	}
	plan := matrix.NewDense(c.Rows, c.Cols)
	if err := SinkhornTo(ctx, plan, c, mu, nu, eps, iters); err != nil {
		return nil, err
	}
	return plan, nil
}

// SinkhornTo is SinkhornCtx writing the plan into out (c's shape), so
// iterative callers reuse one buffer. out may be c itself: the cost is then
// overwritten by the plan. The plan is bitwise that of SinkhornCtx. When it
// returns an error, out holds no plan.
func SinkhornTo(ctx context.Context, out, c *matrix.Dense, mu, nu []float64, eps float64, iters int) error {
	if err := checkEps(eps); err != nil {
		return err
	}
	if out.Rows != c.Rows || out.Cols != c.Cols {
		panic(fmt.Sprintf("ot: Sinkhorn plan is %dx%d, cost %dx%d", out.Rows, out.Cols, c.Rows, c.Cols))
	}
	// Kernel K = exp(-C/eps), stabilized row by row: subtracting a per-row
	// constant from C only rescales the row's scaling factor u_i (the plan is
	// invariant), and it pins every row's largest kernel entry at exactly 1,
	// so no row underflows to all zeros however wide the cost range or small
	// eps. A single global minimum leaves rows whose costs sit far above it
	// with uniformly tiny kernels that vanish at small eps. Each kernel row
	// is written after its cost row is read, so out may alias c.
	for i := 0; i < c.Rows; i++ {
		crow := c.Row(i)
		minC := math.Inf(1)
		for _, v := range crow {
			if v < minC {
				minC = v
			}
		}
		krow := out.Row(i)
		for j, v := range crow {
			krow[j] = math.Exp(-(v - minC) / eps)
		}
	}
	return scaleToPlan(ctx, out, out, mu, nu, iters)
}

// checkEps rejects a regularization strength that is not positive (or is
// NaN), for which every kernel entry is NaN or infinite.
func checkEps(eps float64) error {
	if !(eps > 0) {
		return fmt.Errorf("ot: Sinkhorn eps must be positive, got %v", eps)
	}
	return nil
}

// tiny floors the scaling denominators, so a row or column whose kernel
// mass underflowed scales by a huge but finite factor.
const tiny = 1e-300

// scaleToPlan runs iters Sinkhorn scaling rounds on the kernel k from
// u = v = 1,
//
//	u = mu ./ (K v),  v = nu ./ (Kᵀ u),
//
// checking ctx once per round, and writes the plan diag(u) K diag(v) into
// out, which has k's shape and may be k itself.
func scaleToPlan(ctx context.Context, out, k *matrix.Dense, mu, nu []float64, iters int) error {
	u := make([]float64, k.Rows)
	v := make([]float64, k.Cols)
	ktu := make([]float64, k.Cols)
	for i := range u {
		u[i] = 1
	}
	for j := range v {
		v[j] = 1
	}
	for it := 0; it < iters; it++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		sinkhornRound(k, mu, u, v, ktu)
		for j, s := range ktu {
			v[j] = nu[j] / atLeastTiny(s)
		}
	}
	for i := 0; i < k.Rows; i++ {
		krow := k.Row(i)
		trow := out.Row(i)
		ui := u[i]
		for j, kv := range krow {
			trow[j] = ui * kv * v[j]
		}
	}
	return nil
}

// sinkhornRound sets u = mu ./ (K v) and ktu = Kᵀ u in one pass over K. Rows
// are taken four at a time: matrix.Dot4 forms their four row sums for u in
// independent chains, then matrix.AddMul4 loads and stores each ktu[j] once
// per four rows and adds their terms in ascending row order. Every element
// is therefore bitwise the plain two-pass loop (all of u, then all of Kᵀ u,
// one row at a time), while K is read once per round instead of twice.
func sinkhornRound(k *matrix.Dense, mu, u, v, ktu []float64) {
	clear(ktu)
	i := 0
	for ; i+4 <= k.Rows; i += 4 {
		r0, r1, r2, r3 := k.Row(i), k.Row(i+1), k.Row(i+2), k.Row(i+3)
		s0, s1, s2, s3 := matrix.Dot4(r0, r1, r2, r3, v)
		u0 := mu[i] / atLeastTiny(s0)
		u1 := mu[i+1] / atLeastTiny(s1)
		u2 := mu[i+2] / atLeastTiny(s2)
		u3 := mu[i+3] / atLeastTiny(s3)
		u[i], u[i+1], u[i+2], u[i+3] = u0, u1, u2, u3
		matrix.AddMul4(ktu, r0, r1, r2, r3, u0, u1, u2, u3)
	}
	for ; i < k.Rows; i++ {
		row := k.Row(i)
		ui := mu[i] / atLeastTiny(matrix.Dot(row, v))
		u[i] = ui
		matrix.AxpyVec(ktu, row, ui)
	}
}

func atLeastTiny(s float64) float64 {
	if s < tiny {
		return tiny
	}
	return s
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

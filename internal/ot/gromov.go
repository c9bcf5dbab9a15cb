package ot

import (
	"context"
	"fmt"
	"math"

	"graphalign/internal/matrix"
)

// GWOptions configure the proximal-point Gromov–Wasserstein solver.
type GWOptions struct {
	// Beta is the proximal (entropic) regularization strength; the paper
	// tunes it to 0.025 on sparse and 0.1 on dense graphs for S-GWL.
	Beta float64
	// OuterIters is the number of proximal-point updates of the plan.
	OuterIters int
	// SinkhornIters is the number of Sinkhorn scaling rounds per outer
	// iteration.
	SinkhornIters int
}

// GromovWassersteinCtx solves
//
//	min_{T in Pi(mu, nu)} sum_{i,j,k,l} (Ca[i][k] - Cb[j][l])^2 T[i][j] T[k][l]
//
// with the proximal point method: each outer iteration linearizes the
// quadratic objective at the current plan and solves the resulting
// entropic OT problem with Sinkhorn, using the previous plan as the
// proximal prior. It returns the final plan T (len(mu) x len(nu)).
//
// The gradient uses the square-loss decomposition of Peyré et al.:
//
//	L(Ca, Cb) ⊗ T = cst - 2 * Ca T Cbᵀ
//
// where cst = (Ca∘Ca) mu 1ᵀ + 1 nuᵀ (Cb∘Cb)ᵀ depends only on the marginals.
// The costs enter only through those three products (see Cost), so a
// DenseCost pays two dense n³ products per outer iteration and an
// AdjacencyCost O((nnz_A + nnz_B)·n).
//
// A Beta that is not positive is an error. Cancellation is checked at
// every outer proximal iteration and every inner Sinkhorn round; it returns
// ctx.Err() and a nil plan when interrupted. An empty node set on either
// side has the empty plan.
func GromovWassersteinCtx(ctx context.Context, ca, cb Cost, mu, nu []float64, opts GWOptions) (*matrix.Dense, error) {
	if !(opts.Beta > 0) {
		return nil, fmt.Errorf("ot: Gromov-Wasserstein beta must be positive, got %v", opts.Beta)
	}
	n, m := ca.Size(), cb.Size()
	if n == 0 || m == 0 {
		return matrix.NewDense(n, m), nil
	}
	if opts.OuterIters <= 0 {
		opts.OuterIters = 1
	}
	// Constant part of the gradient.
	ca2mu := make([]float64, n) // (Ca ∘ Ca) mu
	ca.sqMulVecTo(ca2mu, mu)
	cb2nu := make([]float64, m) // (Cb ∘ Cb) nu
	cb.sqMulVecTo(cb2nu, nu)
	cst := matrix.NewDense(n, m)
	for i := 0; i < n; i++ {
		row := cst.Row(i)
		for j := 0; j < m; j++ {
			row[j] = ca2mu[i] + cb2nu[j]
		}
	}

	// Initial plan: product measure mu nuᵀ. The plan is updated in place
	// and every per-iteration product lands in a buffer allocated once.
	t := matrix.Outer(mu, nu)
	caT := matrix.NewDense(n, m)    // Ca T
	caTcbT := matrix.NewDense(n, m) // Ca T Cbᵀ
	grad := matrix.NewDense(n, m)
	kernel := matrix.NewDense(n, m)
	for it := 0; it < opts.OuterIters; it++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// grad = cst - 2 * Ca T Cbᵀ
		ca.mulTo(caT, t)
		cb.mulTransTo(caTcbT, caT)
		copy(grad.Data, cst.Data)
		grad.AddScaled(caTcbT, -2)
		// Proximal step: cost = grad - beta * log(T_prev); folding the log
		// prior into the kernel is equivalent to Sinkhorn on
		// exp(-(grad)/beta) ∘ T_prev.
		if err := sinkhornWithPrior(ctx, grad, t, kernel, mu, nu, opts.Beta, opts.SinkhornIters); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// sinkhornWithPrior solves min <C,T> + beta*KL(T || prior) over Pi(mu, nu)
// by scaling the kernel prior ∘ exp(-C/beta), checking ctx once per round.
// The plan overwrites prior; k is scratch of the same shape for the kernel.
func sinkhornWithPrior(ctx context.Context, c, prior, k *matrix.Dense, mu, nu []float64, beta float64, iters int) error {
	minC := c.Data[0]
	for _, v := range c.Data {
		if v < minC {
			minC = v
		}
	}
	for i, v := range c.Data {
		k.Data[i] = prior.Data[i] * expStable(-(v-minC)/beta)
	}
	return scaleToPlan(ctx, prior, k, mu, nu, iters)
}

func expStable(x float64) float64 {
	if x < -700 {
		return 0
	}
	if x > 700 {
		x = 700
	}
	return math.Exp(x)
}

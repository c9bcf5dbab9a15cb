package ot

import (
	"context"
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

// DefaultGWOptions mirrors the settings used in the experiments.
func DefaultGWOptions() GWOptions {
	return GWOptions{Beta: 0.1, OuterIters: 20, SinkhornIters: 30}
}

// GromovWasserstein solves
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
func GromovWasserstein(ca, cb *matrix.Dense, mu, nu []float64, opts GWOptions) *matrix.Dense {
	t, _ := GromovWassersteinCtx(context.Background(), ca, cb, mu, nu, opts)
	return t
}

// GromovWassersteinCtx is GromovWasserstein with cooperative cancellation
// checked at every outer proximal iteration and every inner Sinkhorn round;
// it returns ctx.Err() and a nil plan when interrupted.
func GromovWassersteinCtx(ctx context.Context, ca, cb *matrix.Dense, mu, nu []float64, opts GWOptions) (*matrix.Dense, error) {
	n, m := ca.Rows, cb.Rows
	if opts.OuterIters <= 0 {
		opts.OuterIters = 1
	}
	// Constant part of the gradient.
	ca2mu := make([]float64, n) // (Ca ∘ Ca) mu
	for i := 0; i < n; i++ {
		row := ca.Row(i)
		var s float64
		for k, v := range row {
			s += v * v * mu[k]
		}
		ca2mu[i] = s
	}
	cb2nu := make([]float64, m) // (Cb ∘ Cb) nu
	for j := 0; j < m; j++ {
		row := cb.Row(j)
		var s float64
		for l, v := range row {
			s += v * v * nu[l]
		}
		cb2nu[j] = s
	}
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
		matrix.MulTo(caT, ca, t)
		matrix.MulABTTo(caTcbT, caT, cb)
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

func expStable(x float64) float64 {
	if x < -700 {
		return 0
	}
	if x > 700 {
		x = 700
	}
	return math.Exp(x)
}

// GWDiscrepancy evaluates the Gromov–Wasserstein objective at plan t.
func GWDiscrepancy(ca, cb, t *matrix.Dense, mu, nu []float64) float64 {
	// <cst - 2 Ca T Cbᵀ, T> with cst as in GromovWasserstein.
	n, m := ca.Rows, cb.Rows
	caT := matrix.Mul(ca, t)
	caTcbT := matrix.MulABT(caT, cb)
	var obj float64
	for i := 0; i < n; i++ {
		rowA := ca.Row(i)
		var a2 float64
		for k, v := range rowA {
			a2 += v * v * mu[k]
		}
		trow := t.Row(i)
		grow := caTcbT.Row(i)
		for j := 0; j < m; j++ {
			rowB := cb.Row(j)
			var b2 float64
			for l, v := range rowB {
				b2 += v * v * nu[l]
			}
			obj += (a2 + b2 - 2*grow[j]) * trow[j]
		}
	}
	return obj
}

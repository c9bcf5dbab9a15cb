package ot

import (
	"graphalign/internal/graph"
	"graphalign/internal/matrix"
)

// Cost is an n x n intra-graph cost matrix C as the proximal-point
// Gromov–Wasserstein loop uses it: only through the products C·T and X·Cᵀ
// and the vector (C∘C)w. A cost with structure computes them without ever
// forming C.
type Cost interface {
	// Size returns n.
	Size() int
	// mulTo writes C·T into out (n x T.Cols, not aliasing t).
	mulTo(out, t *matrix.Dense)
	// mulTransTo writes X·Cᵀ into out (X.Rows x n, not aliasing x).
	mulTransTo(out, x *matrix.Dense)
	// sqMulVecTo writes (C∘C)w into out (len n).
	sqMulVecTo(out, w []float64)
}

// DenseCost is a cost given entry by entry, such as GWL's blend of graph
// and embedding costs or S-GWL's capped-distance and barycenter costs.
type DenseCost struct{ C *matrix.Dense }

// Size implements Cost.
func (d DenseCost) Size() int { return d.C.Rows }

func (d DenseCost) mulTo(out, t *matrix.Dense) { matrix.MulTo(out, d.C, t) }

func (d DenseCost) mulTransTo(out, x *matrix.Dense) { matrix.MulABTTo(out, x, d.C) }

func (d DenseCost) sqMulVecTo(out, w []float64) {
	for i := range out {
		var s float64
		for k, v := range d.C.Row(i) {
			s += v * v * w[k]
		}
		out[i] = s
	}
}

// The adjacency cost of a graph: 0 from a node to itself, adjacentCost
// between neighbors and 1 between any other pair. As a matrix that is
// C = J − I − edgeDrop·A, and C∘C = J − I − edgeDropSq·A, where J is all
// ones and A the 0/1 adjacency matrix.
const (
	adjacentCost = 0.25
	edgeDrop     = 1 - adjacentCost
	edgeDropSq   = 1 - adjacentCost*adjacentCost
)

// AdjacencyCost is the adjacency cost of G (GWL's intra-graph cost, and the
// cost of every S-GWL leaf). Its products cost O(nnz(A)·T.Cols) instead of
// the O(n²·T.Cols) of the dense form:
//
//	C·T = 1(1ᵀT) − T − edgeDrop·A·T
//	X·Cᵀ = (X1)1ᵀ − X − edgeDrop·X·A
//	(C∘C)w = (Σw)1 − w − edgeDropSq·A·w
//
// They reorder the dense sums, so results agree with DenseCost{C: Dense()}
// to rounding, not bit for bit.
type AdjacencyCost struct{ G *graph.Graph }

// Size implements Cost.
func (a AdjacencyCost) Size() int { return a.G.N() }

// Dense returns the cost as an explicit n x n matrix.
func (a AdjacencyCost) Dense() *matrix.Dense {
	n := a.G.N()
	c := matrix.NewDense(n, n)
	c.Fill(1)
	for u := 0; u < n; u++ {
		c.Set(u, u, 0)
		for _, v := range a.G.Neighbors(u) {
			c.Set(u, v, adjacentCost)
		}
	}
	return c
}

func (a AdjacencyCost) mulTo(out, t *matrix.Dense) {
	colSums := t.ColSums()
	for i := 0; i < t.Rows; i++ {
		// orow = (A·T)_i, the neighbor rows of T added in ascending order;
		// four at a time, so each output element is loaded and stored once
		// per four rows.
		orow := out.Row(i)
		clear(orow)
		nb := a.G.Neighbors(i)
		for ; len(nb) >= 4; nb = nb[4:] {
			r0 := t.Row(nb[0])[:len(orow)]
			r1 := t.Row(nb[1])[:len(orow)]
			r2 := t.Row(nb[2])[:len(orow)]
			r3 := t.Row(nb[3])[:len(orow)]
			for j, o := range orow {
				o += r0[j]
				o += r1[j]
				o += r2[j]
				o += r3[j]
				orow[j] = o
			}
		}
		for _, k := range nb {
			for j, v := range t.Row(k)[:len(orow)] {
				orow[j] += v
			}
		}
		trow := t.Row(i)
		for j, s := range colSums {
			orow[j] = s - trow[j] - edgeDrop*orow[j]
		}
	}
}

func (a AdjacencyCost) mulTransTo(out, x *matrix.Dense) {
	rowSums := x.RowSums()
	// (X·A)[i][j] gathers row i of X over the neighbors of j. Rows are taken
	// four at a time, so each neighbor list is walked once per four rows,
	// with one ascending-order chain per row.
	i := 0
	for ; i+4 <= x.Rows; i += 4 {
		x0, x1, x2, x3 := x.Row(i), x.Row(i+1), x.Row(i+2), x.Row(i+3)
		o0, o1, o2, o3 := out.Row(i), out.Row(i+1), out.Row(i+2), out.Row(i+3)
		for j := range o0 {
			var s0, s1, s2, s3 float64
			for _, l := range a.G.Neighbors(j) {
				s0 += x0[l]
				s1 += x1[l]
				s2 += x2[l]
				s3 += x3[l]
			}
			o0[j] = rowSums[i] - x0[j] - edgeDrop*s0
			o1[j] = rowSums[i+1] - x1[j] - edgeDrop*s1
			o2[j] = rowSums[i+2] - x2[j] - edgeDrop*s2
			o3[j] = rowSums[i+3] - x3[j] - edgeDrop*s3
		}
	}
	for ; i < x.Rows; i++ {
		xrow, orow := x.Row(i), out.Row(i)
		for j := range orow {
			var s float64
			for _, l := range a.G.Neighbors(j) {
				s += xrow[l]
			}
			orow[j] = rowSums[i] - xrow[j] - edgeDrop*s
		}
	}
}

func (a AdjacencyCost) sqMulVecTo(out, w []float64) {
	var total float64
	for _, v := range w {
		total += v
	}
	for i := range out {
		var s float64
		for _, k := range a.G.Neighbors(i) {
			s += w[k]
		}
		out[i] = total - w[i] - edgeDropSq*s
	}
}

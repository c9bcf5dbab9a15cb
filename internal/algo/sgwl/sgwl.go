// Package sgwl implements Scalable Gromov–Wasserstein Learning (Xu, Luo,
// Carin 2019): the divide-and-conquer version of GWL.
//
// S-GWL recursively co-partitions the two graphs: a Gromov–Wasserstein
// transport to a small K-node barycenter graph assigns every node of each
// graph to one of K clusters; matched cluster pairs are recursed into until
// they are small enough to align directly with the GW solver. This
// yields the logarithmic speedup the paper describes while optimizing the
// same objective as GWL.
package sgwl

import (
	"context"
	"errors"

	"graphalign/internal/assign"
	"graphalign/internal/graph"
	"graphalign/internal/matrix"
	"graphalign/internal/obsv"
	"graphalign/internal/ot"
)

// SGWL aligns graphs by recursive Gromov–Wasserstein partitioning.
type SGWL struct {
	// Beta is the proximal regularization (the study manually sets 0.025 on
	// sparse datasets and 0.1 on dense ones).
	Beta float64
	// Partitions is the branching factor K of the recursive decomposition.
	Partitions int
	// LeafSize is the subproblem size below which GW runs directly.
	// Below ~400 nodes the flat solve is both faster and more accurate than
	// recursing; the recursion is what keeps larger graphs tractable.
	LeafSize int
	// OuterIters / SinkhornIters configure the GW solver.
	OuterIters, SinkhornIters int

	// span receives the recursion's inner phases (algo.Instrumented); nil
	// (the default) disables tracing at zero cost.
	span *obsv.Span
}

// SetSpan implements algo.Instrumented.
func (s *SGWL) SetSpan(sp *obsv.Span) { s.span = sp }

// New returns S-GWL with the study's dense-data hyperparameters.
func New() *SGWL {
	return &SGWL{Beta: 0.1, Partitions: 4, LeafSize: 384, OuterIters: 20, SinkhornIters: 30}
}

// NewSparse returns S-GWL with the study's sparse-data beta (0.025).
func NewSparse() *SGWL {
	s := New()
	s.Beta = 0.025
	return s
}

// Name implements algo.Aligner.
func (s *SGWL) Name() string { return "S-GWL" }

// DefaultAssignment implements algo.Aligner; S-GWL extracts alignments by
// nearest neighbor on the transport plan.
func (s *SGWL) DefaultAssignment() assign.Method { return assign.NearestNeighbor }

// Similarity implements algo.Aligner: a sparse-ish dense matrix whose mass
// concentrates on the recursively matched blocks. ctx is checked at every
// recursion step and threaded into each partition/leaf transport solve.
func (s *SGWL) Similarity(ctx context.Context, src, dst *graph.Graph) (*matrix.Dense, error) {
	n1, n2 := src.N(), dst.N()
	if n1 == 0 || n2 == 0 {
		return nil, errors.New("sgwl: empty graph")
	}
	sim := matrix.NewDense(n1, n2)
	srcNodes := all(n1)
	dstNodes := all(n2)
	if err := s.recurse(ctx, src, dst, srcNodes, dstNodes, sim, 0); err != nil {
		return nil, err
	}
	return sim, nil
}

const maxDepth = 10

// recurse aligns the induced subproblems on srcNodes x dstNodes, writing
// transport mass into sim at original coordinates.
func (s *SGWL) recurse(ctx context.Context, src, dst *graph.Graph, srcNodes, dstNodes []int, sim *matrix.Dense, depth int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(srcNodes) == 0 || len(dstNodes) == 0 {
		return nil
	}
	leaf := s.LeafSize
	if leaf < 8 {
		leaf = 8
	}
	if len(srcNodes) <= leaf || len(dstNodes) <= leaf || depth >= maxDepth {
		return s.solveLeaf(ctx, src, dst, srcNodes, dstNodes, sim)
	}
	k := s.Partitions
	if k < 2 {
		k = 2
	}
	subSrc, _ := graph.InducedSubgraph(src, srcNodes)
	subDst, _ := graph.InducedSubgraph(dst, dstNodes)
	// Co-partition both subgraphs against a shared K-node barycenter graph
	// (the mechanism of the original S-GWL): transporting both graphs to
	// the same barycenter makes cluster k of the source correspond to
	// cluster k of the target by construction.
	sp := s.span.Phase("partition")
	sp.Set("depth", depth)
	sp.Set("n_src", len(srcNodes))
	sp.Set("n_dst", len(dstNodes))
	sp.Set("ot_outer_iters", s.OuterIters)
	sp.Set("ot_sinkhorn_iters", s.SinkhornIters)
	labS, labD, ok, err := s.coPartition(ctx, subSrc, subDst, k)
	if err != nil {
		sp.End()
		return err
	}
	sp.Set("ok", ok)
	sp.End()
	if !ok {
		return s.solveLeaf(ctx, src, dst, srcNodes, dstNodes, sim)
	}
	for c := 0; c < k; c++ {
		var sn, dn []int
		for i, ls := range labS {
			if memberOf(ls, c) {
				sn = append(sn, srcNodes[i])
			}
		}
		for j, ls := range labD {
			if memberOf(ls, c) {
				dn = append(dn, dstNodes[j])
			}
		}
		if len(sn) == 0 || len(dn) == 0 {
			continue
		}
		if err := s.recurse(ctx, src, dst, sn, dn, sim, depth+1); err != nil {
			return err
		}
	}
	return nil
}

func memberOf(labels []int, c int) bool {
	for _, l := range labels {
		if l == c {
			return true
		}
	}
	return false
}

// coPartition learns a K-node Gromov–Wasserstein barycenter shared by both
// graphs and labels every node with its dominant barycenter clusters.
// Boundary nodes (whose neighborhood transport mass is split between
// clusters) carry up to two labels, so they join both subproblems instead
// of being forced to one side — the recursion is where cluster mistakes
// become unrecoverable. It reports ok=false when the partition degenerates,
// in which case the caller falls back to a direct solve.
func (s *SGWL) coPartition(ctx context.Context, ga, gb *graph.Graph, k int) (labA, labB [][]int, ok bool, err error) {
	muA := ot.DegreeWeights(ga.Degrees())
	muB := ot.DegreeWeights(gb.Degrees())
	wBar := make([]float64, k)
	for i := range wBar {
		wBar[i] = 1 / float64(k)
	}
	// Partitioning needs global geometry, so the node-level costs here are
	// capped shortest-path distances rather than raw adjacency.
	ca := distanceCost(ga)
	cb := distanceCost(gb)
	// Initialize the barycenter cost as a ring of K super-nodes — any
	// fixed, structure-free start works; the updates below pull it toward
	// the shared coarse structure of the two graphs.
	cBar := matrix.NewDense(k, k)
	cBar.Fill(1)
	for i := 0; i < k; i++ {
		cBar.Set(i, i, 0)
		cBar.Set(i, (i+1)%k, 0.25)
		cBar.Set((i+1)%k, i, 0.25)
	}
	opts := ot.GWOptions{Beta: s.Beta, OuterIters: s.OuterIters, SinkhornIters: s.SinkhornIters}
	// Anchor the barycenter on the source graph first: the initial ring is
	// symmetric, and letting both graphs lock onto it independently would
	// let them converge to different modes. After anchoring, the barycenter
	// carries A's realized coarse structure and B's transport follows it.
	var tA, tB *matrix.Dense
	tA, err = ot.GromovWassersteinCtx(ctx, ot.DenseCost{C: ca}, ot.DenseCost{C: cBar}, muA, wBar, opts)
	if err != nil {
		return nil, nil, false, err
	}
	cBar = barycenterUpdate(ca, tA, wBar)
	const rounds = 2
	for r := 0; r < rounds; r++ {
		tB, err = ot.GromovWassersteinCtx(ctx, ot.DenseCost{C: cb}, ot.DenseCost{C: cBar}, muB, wBar, opts)
		if err != nil {
			return nil, nil, false, err
		}
		tA, err = ot.GromovWassersteinCtx(ctx, ot.DenseCost{C: ca}, ot.DenseCost{C: cBar}, muA, wBar, opts)
		if err != nil {
			return nil, nil, false, err
		}
		upA := barycenterUpdate(ca, tA, wBar)
		upB := barycenterUpdate(cb, tB, wBar)
		for i := range cBar.Data {
			cBar.Data[i] = 0.5 * (upA.Data[i] + upB.Data[i])
		}
	}
	labA = smoothedLabels(ga, tA)
	labB = smoothedLabels(gb, tB)
	// Degeneracy check on primary labels: every cluster must be non-empty
	// on both sides, and no cluster may swallow (almost) everything.
	countA := make([]int, k)
	countB := make([]int, k)
	for _, ls := range labA {
		countA[ls[0]]++
	}
	for _, ls := range labB {
		countB[ls[0]]++
	}
	nonEmpty := 0
	for c := 0; c < k; c++ {
		if countA[c] > 0 && countB[c] > 0 {
			nonEmpty++
		}
		if (countA[c] == 0) != (countB[c] == 0) {
			return nil, nil, false, nil // inconsistent split
		}
	}
	if nonEmpty < 2 {
		return nil, nil, false, nil
	}
	// Guard against a near-total cluster that would defeat the recursion.
	for c := 0; c < k; c++ {
		if countA[c] > ga.N()*9/10 || countB[c] > gb.N()*9/10 {
			return nil, nil, false, nil
		}
	}
	return labA, labB, true, nil
}

// barycenterUpdate returns Tᵀ C T normalized by the barycenter masses.
func barycenterUpdate(c, t *matrix.Dense, w []float64) *matrix.Dense {
	ct := matrix.Mul(c, t)      // n x k
	up := matrix.Mul(t.T(), ct) // k x k
	for p := 0; p < up.Rows; p++ {
		for q := 0; q < up.Cols; q++ {
			norm := w[p] * w[q]
			if norm > 0 {
				up.Set(p, q, up.At(p, q)/norm)
			}
		}
	}
	return up
}

// distanceCost returns the matrix of BFS distances capped at maxHop and
// scaled to [0, 1]; it carries the global geometry that raw adjacency
// lacks, which is what the barycenter partition keys on.
func distanceCost(g *graph.Graph) *matrix.Dense {
	const maxHop = 5
	n := g.N()
	c := matrix.NewDense(n, n)
	for u := 0; u < n; u++ {
		dist := graph.BFSDistances(g, u)
		row := c.Row(u)
		for v, d := range dist {
			if d < 0 || d > maxHop {
				d = maxHop
			}
			row[v] = float64(d) / maxHop
		}
	}
	return c
}

// smoothedLabels assigns each node its dominant cluster by transport mass
// summed over its closed neighborhood, plus a secondary cluster when the
// runner-up holds at least half the winner's mass (a boundary node). The
// smoothing uses only each graph's own structure, so it is
// permutation-equivariant and treats both sides identically.
func smoothedLabels(g *graph.Graph, t *matrix.Dense) [][]int {
	n, k := t.Rows, t.Cols
	out := make([][]int, n)
	score := make([]float64, k)
	for u := 0; u < n; u++ {
		copy(score, t.Row(u))
		for _, v := range g.Neighbors(u) {
			row := t.Row(v)
			for j := 0; j < k; j++ {
				score[j] += row[j]
			}
		}
		best, second := 0, -1
		for j := 1; j < k; j++ {
			if score[j] > score[best] {
				second = best
				best = j
			} else if second == -1 || score[j] > score[second] {
				second = j
			}
		}
		labels := []int{best}
		if second >= 0 && score[second] >= 0.5*score[best] {
			labels = append(labels, second)
		}
		out[u] = labels
	}
	return out
}

// solveLeaf runs GW on the induced pair with GWL's adjacency cost, whose
// gradient costs O(nnz·n) per proximal step instead of two n³ products, and
// writes the plan back.
func (s *SGWL) solveLeaf(ctx context.Context, src, dst *graph.Graph, srcNodes, dstNodes []int, sim *matrix.Dense) error {
	sp := s.span.Phase("leaf_solve")
	sp.Set("n_src", len(srcNodes))
	sp.Set("n_dst", len(dstNodes))
	defer sp.End()
	subSrc, _ := graph.InducedSubgraph(src, srcNodes)
	subDst, _ := graph.InducedSubgraph(dst, dstNodes)
	mu := ot.DegreeWeights(subSrc.Degrees())
	nu := ot.DegreeWeights(subDst.Degrees())
	plan, err := ot.GromovWassersteinCtx(ctx, ot.AdjacencyCost{G: subSrc}, ot.AdjacencyCost{G: subDst}, mu, nu, ot.GWOptions{
		Beta: s.Beta, OuterIters: s.OuterIters, SinkhornIters: s.SinkhornIters,
	})
	if err != nil {
		return err
	}
	// Scale each leaf's plan to comparable magnitude before writeback so
	// leaves of different sizes contribute comparable per-pair evidence.
	scale := float64(len(srcNodes))
	for i, u := range srcNodes {
		prow := plan.Row(i)
		for j, v := range dstNodes {
			sim.Add(u, v, prow[j]*scale)
		}
	}
	return nil
}

func all(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// Package adaptive implements the paper's concluding recommendation as a
// working method: "Graph density and degree distribution affect
// performance. As these are inherent graph properties, we conclude that
// future graph alignment algorithms should consider these parameters in
// pre-processing."
//
// The Adaptive aligner inspects exactly those parameters — size, average
// degree, degree-distribution skew, clustering — and dispatches to the
// study's best-suited algorithm with matching hyperparameters:
//
//   - powerlaw-skewed degrees -> GWL-family methods excel (paper §6.3),
//     S-GWL with dense beta;
//   - sparse, low-degree graphs -> IsoRank with the degree prior holds up
//     where embeddings fail (paper §6.7, Figure 16);
//   - large graphs -> REGAL, "a viable alternative if scalability is a
//     concern" (paper §7);
//   - everything else -> S-GWL with the sparse beta, "an algorithm of
//     choice on most counts" (paper §7).
package adaptive

import (
	"context"
	"math"

	"graphalign/internal/algo"
	"graphalign/internal/algo/isorank"
	"graphalign/internal/algo/regal"
	"graphalign/internal/algo/sgwl"
	"graphalign/internal/assign"
	"graphalign/internal/graph"
	"graphalign/internal/matrix"
)

// Profile summarizes the structural parameters the dispatch keys on.
type Profile struct {
	N         int
	AvgDegree float64
	// Skew is the ratio of maximum to average degree; powerlaw graphs have
	// large skew, lattices and proximity networks sit near 1.
	Skew float64
	// Clustering is the global clustering coefficient.
	Clustering float64
}

// Profiles computes the joint profile of an alignment instance (the
// pairwise maxima of both graphs' statistics, so either graph can trigger
// the relevant regime).
func Profiles(src, dst *graph.Graph) Profile {
	p1 := profileOf(src)
	p2 := profileOf(dst)
	return Profile{
		N:          maxInt(p1.N, p2.N),
		AvgDegree:  math.Max(p1.AvgDegree, p2.AvgDegree),
		Skew:       math.Max(p1.Skew, p2.Skew),
		Clustering: math.Max(p1.Clustering, p2.Clustering),
	}
}

func profileOf(g *graph.Graph) Profile {
	p := Profile{N: g.N(), AvgDegree: g.AvgDegree()}
	if p.AvgDegree > 0 {
		p.Skew = float64(g.MaxDegree()) / p.AvgDegree
	}
	p.Clustering = graph.ClusteringCoefficient(g)
	return p
}

// Thresholds tune the dispatch; the zero value means defaults.
type Thresholds struct {
	// LargeN switches to REGAL above this size (default 4096).
	LargeN int
	// SparseDegree switches to IsoRank below this average degree
	// (default 4).
	SparseDegree float64
	// PowerlawSkew marks a degree distribution as powerlaw at or above
	// this max/avg ratio (default 5).
	PowerlawSkew float64
	// DenseBetaDegree selects S-GWL's dense beta at or above this average
	// degree (default 20, following the paper's sparse/dense split).
	DenseBetaDegree float64
}

func (t Thresholds) withDefaults() Thresholds {
	if t.LargeN == 0 {
		t.LargeN = 4096
	}
	if t.SparseDegree == 0 {
		t.SparseDegree = 4
	}
	if t.PowerlawSkew == 0 {
		t.PowerlawSkew = 5
	}
	if t.DenseBetaDegree == 0 {
		t.DenseBetaDegree = 20
	}
	return t
}

// Adaptive dispatches to the study's best-suited algorithm based on the
// input graphs' structural profile.
type Adaptive struct {
	Thresholds Thresholds
}

// New returns an Adaptive aligner with default thresholds.
func New() *Adaptive {
	return &Adaptive{}
}

// Name implements algo.Aligner.
func (a *Adaptive) Name() string { return "Adaptive" }

// DefaultAssignment implements algo.Aligner; JV is the study's common
// assignment stage.
func (a *Adaptive) DefaultAssignment() assign.Method { return assign.JonkerVolgenant }

// Select returns the aligner the profile dispatches to, without running it.
func (a *Adaptive) Select(p Profile) algo.Aligner {
	t := a.Thresholds.withDefaults()
	switch {
	case p.N >= t.LargeN:
		// Scalability regime: REGAL (paper §7).
		return regal.New()
	case p.AvgDegree < t.SparseDegree:
		// Sparse regime: IsoRank's weighted prior aligns small-degree
		// nodes where embeddings blur (paper Figure 16).
		return isorank.New()
	case p.Skew >= t.PowerlawSkew:
		// Powerlaw regime: the GW family leads (paper §6.3); dense beta.
		s := sgwl.New()
		s.Beta = 0.1
		return s
	default:
		// Homogeneous mid-size regime: S-GWL with the sparse beta.
		if p.AvgDegree >= t.DenseBetaDegree {
			return sgwl.New()
		}
		return sgwl.NewSparse()
	}
}

// Similarity implements algo.Aligner by profiling and dispatching; the
// context reaches whichever algorithm the profile dispatches to.
func (a *Adaptive) Similarity(ctx context.Context, src, dst *graph.Graph) (*matrix.Dense, error) {
	return a.Select(Profiles(src, dst)).Similarity(ctx, src, dst)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Package graphalign is the public API of this repository: a complete Go
// implementation of the nine unrestricted graph-alignment algorithms
// benchmarked by Skitsas et al., "Comprehensive Evaluation of Algorithms
// for Unrestricted Graph Alignment" (EDBT 2023), together with the
// experiment framework that reproduces the study's tables and figures.
//
// Quick start:
//
//	src, _, err := graphalign.ReadGraphFile("a.edges")
//	dst, _, err := graphalign.ReadGraphFile("b.edges")
//	mapping, err := graphalign.Align("CONE", src, dst, graphalign.JV)
//
// mapping[u] is the node of dst aligned to node u of src. Algorithms are
// looked up by their paper names: IsoRank, GRAAL, NSD, LREA, REGAL, GWL,
// S-GWL, CONE, GRASP.
package graphalign

import (
	"context"
	"fmt"
	"os"
	"sort"

	"graphalign/internal/adaptive"
	"graphalign/internal/algo"
	"graphalign/internal/algo/cone"
	"graphalign/internal/algo/graal"
	"graphalign/internal/algo/grasp"
	"graphalign/internal/algo/gwl"
	"graphalign/internal/algo/isorank"
	"graphalign/internal/algo/lrea"
	"graphalign/internal/algo/nsd"
	"graphalign/internal/algo/regal"
	"graphalign/internal/algo/sgwl"
	"graphalign/internal/assign"
	"graphalign/internal/graph"
	"graphalign/internal/metrics"
	"graphalign/internal/multi"
)

// Graph re-exports the graph type used throughout the public API.
type Graph = graph.Graph

// Edge re-exports the edge type for graph construction.
type Edge = graph.Edge

// Aligner re-exports the algorithm interface so callers can plug in their
// own similarity notions.
type Aligner = algo.Aligner

// AssignMethod selects the matching-extraction stage.
type AssignMethod = assign.Method

// The four assignment methods of the study (Section 6.2).
const (
	NN  = assign.NearestNeighbor
	SG  = assign.SortGreedy
	MWM = assign.Hungarian
	JV  = assign.JonkerVolgenant
)

// Scores re-exports the quality-measure bundle.
type Scores = metrics.Scores

// Info describes an algorithm's Table 1 characteristics.
type Info struct {
	Name          string
	Year          int
	Preprocessing string // "Yes", "No", or "Both"
	Bio           bool   // designed for biological networks
	Assign        AssignMethod
	Optimizes     string // quality measure the method targets, "Any" if none
	TimeBound     string // asymptotic time in the number of nodes
	Parameters    string // the study's tuned hyperparameters
	New           func() Aligner
}

// registry holds the nine algorithms keyed by canonical name.
var registry = map[string]Info{
	"IsoRank": {
		Name: "IsoRank", Year: 2008, Preprocessing: "Yes", Bio: true,
		Assign: SG, Optimizes: "Any", TimeBound: "O(n^4)",
		Parameters: "alpha=0.9",
		New:        func() Aligner { return isorank.New() },
	},
	"GRAAL": {
		Name: "GRAAL", Year: 2010, Preprocessing: "Yes", Bio: false,
		Assign: SG, Optimizes: "Any", TimeBound: "O(n^3)",
		Parameters: "alpha=0.8",
		New:        func() Aligner { return graal.New() },
	},
	"NSD": {
		Name: "NSD", Year: 2011, Preprocessing: "Both", Bio: false,
		Assign: SG, Optimizes: "Any", TimeBound: "O(n^2)",
		Parameters: "alpha=0.8",
		New:        func() Aligner { return nsd.New() },
	},
	"LREA": {
		Name: "LREA", Year: 2018, Preprocessing: "No", Bio: false,
		Assign: MWM, Optimizes: "Any", TimeBound: "O(n log n)",
		Parameters: "iterations=40",
		New:        func() Aligner { return lrea.New() },
	},
	"REGAL": {
		Name: "REGAL", Year: 2018, Preprocessing: "No", Bio: false,
		Assign: NN, Optimizes: "Any", TimeBound: "O(n log n)",
		Parameters: "k=2, p=10 log n",
		New:        func() Aligner { return regal.New() },
	},
	"GWL": {
		Name: "GWL", Year: 2019, Preprocessing: "No", Bio: false,
		Assign: NN, Optimizes: "Any", TimeBound: "O(n^3)",
		Parameters: "epoch=1",
		New:        func() Aligner { return gwl.New() },
	},
	"S-GWL": {
		Name: "S-GWL", Year: 2019, Preprocessing: "No", Bio: false,
		Assign: NN, Optimizes: "Any", TimeBound: "O(n^2 log n)",
		Parameters: "beta in {0.025, 0.1}",
		New:        func() Aligner { return sgwl.New() },
	},
	"CONE": {
		Name: "CONE", Year: 2020, Preprocessing: "No", Bio: false,
		Assign: NN, Optimizes: "MNC", TimeBound: "O(n^2)",
		Parameters: "dim=512",
		New:        func() Aligner { return cone.New() },
	},
	"GRASP": {
		Name: "GRASP", Year: 2021, Preprocessing: "No", Bio: false,
		Assign: JV, Optimizes: "Any", TimeBound: "O(n^3)",
		Parameters: "q=100, k=20",
		New:        func() Aligner { return grasp.New() },
	},
	// Adaptive is this repository's implementation of the paper's
	// concluding recommendation: dispatch on density and degree
	// distribution. It is not part of the paper's Table 1 and therefore
	// not in Algorithms().
	"Adaptive": {
		Name: "Adaptive", Year: 2023, Preprocessing: "No", Bio: false,
		Assign: JV, Optimizes: "Any", TimeBound: "inherited",
		Parameters: "thresholds on n, degree, skew",
		New:        func() Aligner { return adaptive.New() },
	},
}

// Algorithms returns the canonical algorithm names in the paper's Table 1
// order.
func Algorithms() []string {
	return []string{"IsoRank", "GRAAL", "NSD", "LREA", "REGAL", "GWL", "S-GWL", "CONE", "GRASP"}
}

// Lookup returns the registry entry for an algorithm name.
func Lookup(name string) (Info, error) {
	if info, ok := registry[name]; ok {
		return info, nil
	}
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return Info{}, fmt.Errorf("graphalign: unknown algorithm %q (have %v)", name, names)
}

// NewAligner instantiates an algorithm with the study's tuned defaults.
func NewAligner(name string) (Aligner, error) {
	info, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	return info.New(), nil
}

// Align aligns src to dst with the named algorithm and the given assignment
// method (empty selects the author-proposed one, Table 1's Assign column);
// mapping[u] is the dst node aligned to src node u.
func Align(name string, src, dst *Graph, method AssignMethod) ([]int, error) {
	a, err := NewAligner(name)
	if err != nil {
		return nil, err
	}
	res, err := algo.Run(context.Background(), a, src, dst, algo.Plan{Method: method})
	return res.Mapping, err
}

// Evaluate computes all five quality measures of the study for a mapping;
// trueMap may be nil when no ground truth is known.
func Evaluate(src, dst *Graph, mapping, trueMap []int) Scores {
	return metrics.All(src, dst, mapping, trueMap)
}

// MultiAlignment is the result of aligning several graphs at once; see
// AlignMultiple.
type MultiAlignment = multi.Alignment

// MultiNode identifies a node of one of the graphs in a MultiAlignment
// cluster.
type MultiNode = multi.Node

// AlignMultiple aligns any number of graphs into a single correspondence by
// star alignment (every graph aligned pairwise to the largest one, joined
// into clusters) — the multiple-network extension the paper attributes to
// IsoRankN and GWL, available here for every algorithm.
func AlignMultiple(name string, graphs []*Graph, method AssignMethod) (*MultiAlignment, error) {
	a, err := NewAligner(name)
	if err != nil {
		return nil, err
	}
	return multi.AlignAll(a, graphs, multi.Options{Assign: method, Reference: -1})
}

// NewGraph constructs a graph from an edge list (see internal/graph.New).
func NewGraph(n int, edges []Edge) (*Graph, error) {
	return graph.New(n, edges)
}

// ReadGraphFile loads a whitespace-separated edge-list file; labels maps
// dense node ids back to the file's node labels.
func ReadGraphFile(path string) (g *Graph, labels []string, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("graphalign: %w", err)
	}
	defer f.Close()
	return graph.ReadEdgeList(f)
}

// WriteGraphFile saves g as an edge-list file with dense integer ids.
func WriteGraphFile(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("graphalign: %w", err)
	}
	if err := graph.WriteEdgeList(f, g); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("graphalign: %w", err)
	}
	return nil
}

// Package multi implements multiple-network alignment on top of any
// pairwise Aligner, the extension direction the paper attributes to
// IsoRankN (global multiple network alignment) and GWL ("can thereby align
// multiple networks").
//
// The approach is star alignment: one graph is chosen as the reference
// (by default the one with the most nodes, so every other graph can map
// injectively into it), every other graph is aligned pairwise to the
// reference, and the pairwise mappings are joined through the reference
// into cross-network clusters of mutually corresponding nodes.
package multi

import (
	"context"
	"fmt"
	"sort"

	"graphalign/internal/algo"
	"graphalign/internal/assign"
	"graphalign/internal/graph"
)

// Node identifies a node of one of the input graphs.
type Node struct {
	Graph int // index into the input slice
	ID    int // node id within that graph
}

// Alignment is the result of a multiple-network alignment.
type Alignment struct {
	// Reference is the index of the star center graph.
	Reference int
	// ToReference[g][u] is the reference node aligned to node u of graph g
	// (identity for the reference graph itself; -1 when unmatched).
	ToReference [][]int
	// Clusters groups nodes of different graphs that align to the same
	// reference node; each cluster contains at most one node per graph and
	// always contains its reference node. Clusters are ordered by
	// reference node id.
	Clusters [][]Node
}

// Options configure AlignAll.
type Options struct {
	// Assign is the assignment method for the pairwise alignments
	// (defaults to the aligner's own).
	Assign assign.Method
	// Reference forces a specific star center (-1 = auto: largest graph).
	Reference int
}

// AlignAll aligns every graph to a common reference with the given pairwise
// aligner and joins the results into clusters. At least two graphs are
// required, and the reference must be at least as large as every other
// graph (guaranteed when auto-selected).
func AlignAll(a algo.Aligner, graphs []*graph.Graph, opts Options) (*Alignment, error) {
	if len(graphs) < 2 {
		return nil, fmt.Errorf("multi: need at least 2 graphs, got %d", len(graphs))
	}
	ref := opts.Reference
	if ref < 0 || ref >= len(graphs) {
		ref = 0
		for i, g := range graphs {
			if g.N() > graphs[ref].N() {
				ref = i
			}
		}
	}
	for i, g := range graphs {
		if g.N() > graphs[ref].N() {
			return nil, fmt.Errorf("multi: graph %d (n=%d) larger than reference %d (n=%d)",
				i, g.N(), ref, graphs[ref].N())
		}
	}

	out := &Alignment{
		Reference:   ref,
		ToReference: make([][]int, len(graphs)),
	}
	for i, g := range graphs {
		if i == ref {
			out.ToReference[i] = graph.IdentityPermutation(g.N())
			continue
		}
		res, err := algo.Run(context.Background(), a, g, graphs[ref], algo.Plan{Method: opts.Assign})
		if err != nil {
			return nil, fmt.Errorf("multi: aligning graph %d to reference: %w", i, err)
		}
		out.ToReference[i] = res.Mapping
	}

	// Join through the reference: cluster key = reference node.
	byRef := make(map[int][]Node)
	for gi, mapping := range out.ToReference {
		for u, r := range mapping {
			if r >= 0 {
				byRef[r] = append(byRef[r], Node{Graph: gi, ID: u})
			}
		}
	}
	refIDs := make([]int, 0, len(byRef))
	for r := range byRef {
		refIDs = append(refIDs, r)
	}
	sort.Ints(refIDs)
	for _, r := range refIDs {
		cluster := byRef[r]
		sort.Slice(cluster, func(a, b int) bool { return cluster[a].Graph < cluster[b].Graph })
		out.Clusters = append(out.Clusters, cluster)
	}
	return out, nil
}

// PairwiseMap returns the implied mapping from graph a to graph b
// (composition through the reference); -1 marks nodes with no counterpart.
func (al *Alignment) PairwiseMap(a, b int) ([]int, error) {
	if a < 0 || a >= len(al.ToReference) || b < 0 || b >= len(al.ToReference) {
		return nil, fmt.Errorf("multi: graph index out of range")
	}
	// Invert b's mapping.
	inv := make(map[int]int, len(al.ToReference[b]))
	for u, r := range al.ToReference[b] {
		if r >= 0 {
			inv[r] = u
		}
	}
	out := make([]int, len(al.ToReference[a]))
	for u, r := range al.ToReference[a] {
		out[u] = -1
		if r >= 0 {
			if v, ok := inv[r]; ok {
				out[u] = v
			}
		}
	}
	return out, nil
}

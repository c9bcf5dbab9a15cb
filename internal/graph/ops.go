package graph

import (
	"fmt"
	"math/rand"
)

// Permute relabels the nodes of g by the permutation perm, where perm[u] is
// the new identifier of node u. It returns the relabeled graph. The inverse
// mapping (needed as ground truth by alignment experiments) is simply perm
// itself: aligning Permute(g, perm) back to g must map perm[u] -> u.
func Permute(g *Graph, perm []int) (*Graph, error) {
	if len(perm) != g.N() {
		return nil, fmt.Errorf("graph: permutation length %d != n %d", len(perm), g.N())
	}
	seen := make([]bool, g.N())
	for _, p := range perm {
		if p < 0 || p >= g.N() || seen[p] {
			return nil, fmt.Errorf("graph: invalid permutation")
		}
		seen[p] = true
	}
	edges := g.Edges()
	out := make([]Edge, len(edges))
	for i, e := range edges {
		out[i] = Edge{perm[e.U], perm[e.V]}
	}
	return New(g.N(), out)
}

// RandomPermutation returns a uniformly random permutation of [0, n) drawn
// from rng.
func RandomPermutation(n int, rng *rand.Rand) []int {
	return rng.Perm(n)
}

// IdentityPermutation returns the identity permutation of [0, n).
func IdentityPermutation(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// InversePermutation returns q with q[perm[i]] = i.
func InversePermutation(perm []int) []int {
	q := make([]int, len(perm))
	for i, p := range perm {
		q[p] = i
	}
	return q
}

// ConnectedComponents labels each node with a component id in [0, k) and
// returns the labels together with the number of components k. Component ids
// are assigned in order of discovery from node 0 upward.
func ConnectedComponents(g *Graph) (labels []int, k int) {
	labels = make([]int, g.N())
	for i := range labels {
		labels[i] = -1
	}
	queue := make([]int, 0, g.N())
	for s := 0; s < g.N(); s++ {
		if labels[s] != -1 {
			continue
		}
		labels[s] = k
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, v := range g.Neighbors(u) {
				if labels[v] == -1 {
					labels[v] = k
					queue = append(queue, v)
				}
			}
		}
		k++
	}
	return labels, k
}

// LargestComponent returns the induced subgraph on the largest connected
// component, together with origID mapping subgraph node ids back to ids in g.
func LargestComponent(g *Graph) (sub *Graph, origID []int) {
	labels, k := ConnectedComponents(g)
	if k <= 1 {
		return g.Clone(), IdentityPermutation(g.N())
	}
	sizes := make([]int, k)
	for _, l := range labels {
		sizes[l]++
	}
	best := 0
	for c, s := range sizes {
		if s > sizes[best] {
			best = c
		}
	}
	keep := make([]int, 0, sizes[best])
	for u, l := range labels {
		if l == best {
			keep = append(keep, u)
		}
	}
	sub, _ = InducedSubgraph(g, keep)
	return sub, keep
}

// InducedSubgraph returns the subgraph induced by the given node set (which
// must contain no duplicates), with nodes relabeled to [0, len(nodes)) in the
// order given. The returned map newID maps original ids to subgraph ids.
func InducedSubgraph(g *Graph, nodes []int) (sub *Graph, newID map[int]int) {
	newID = make(map[int]int, len(nodes))
	for i, u := range nodes {
		newID[u] = i
	}
	var edges []Edge
	for i, u := range nodes {
		for _, v := range g.Neighbors(u) {
			j, ok := newID[v]
			if ok && i < j {
				edges = append(edges, Edge{i, j})
			}
		}
	}
	return MustNew(len(nodes), edges), newID
}

// BFSDistances returns hop distances from source s; unreachable nodes get -1.
func BFSDistances(g *Graph, s int) []int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[s] = 0
	queue := []int{s}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.Neighbors(u) {
			if dist[v] == -1 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// HopWalker enumerates the exact-distance hop sets of K-hop
// neighbourhoods of one graph — REGAL's structural signatures walk one per
// node. It is built once per graph and reused across calls: a stamp array
// of length N marks the nodes the current walk has reached (a new walk
// bumps the epoch instead of clearing it), and the hop sets share one
// buffer. A HopWalker is not safe for concurrent use.
type HopWalker struct {
	g     *Graph
	stamp []uint64 // stamp[v] == epoch: v reached by the current walk
	epoch uint64
	// nodes holds the hop sets in hop order. Its capacity is N and a walk
	// appends each node at most once, so it never reallocates and the hop
	// views stay valid while the walk grows it.
	nodes []int
	hops  [][]int
}

// NewHopWalker returns a walker over g.
func NewHopWalker(g *Graph) *HopWalker {
	return &HopWalker{g: g, stamp: make([]uint64, g.N()), nodes: make([]int, 0, g.N())}
}

// Hops returns, for each hop h in 1..K, the nodes at exactly hop distance h
// from u, in breadth-first discovery order (neighbours ascending); hops past
// the end of u's component are empty. The returned slices alias the
// walker's storage and are valid until the next call.
func (w *HopWalker) Hops(u, K int) [][]int {
	w.epoch++
	w.stamp[u] = w.epoch
	w.nodes, w.hops = w.nodes[:0], w.hops[:0]
	w.visit(u)
	lo := 0
	for h := 1; h <= K; h++ {
		hi := len(w.nodes)
		w.hops = append(w.hops, w.nodes[lo:hi:hi])
		if h < K {
			for i := lo; i < hi; i++ {
				w.visit(w.nodes[i])
			}
		}
		lo = hi
	}
	return w.hops
}

// visit appends x's neighbours the current walk has not reached.
func (w *HopWalker) visit(x int) {
	for _, v := range w.g.Neighbors(x) {
		if w.stamp[v] != w.epoch {
			w.stamp[v] = w.epoch
			w.nodes = append(w.nodes, v)
		}
	}
}

// TriangleCount returns the number of triangles in g.
func TriangleCount(g *Graph) int {
	count := 0
	for u := 0; u < g.N(); u++ {
		nu := g.Neighbors(u)
		for _, v := range nu {
			if v <= u {
				continue
			}
			// count common neighbors w > v to count each triangle once
			nv := g.Neighbors(v)
			i, j := 0, 0
			for i < len(nu) && j < len(nv) {
				switch {
				case nu[i] == nv[j]:
					if nu[i] > v {
						count++
					}
					i++
					j++
				case nu[i] < nv[j]:
					i++
				default:
					j++
				}
			}
		}
	}
	return count
}

// ClusteringCoefficient returns the global clustering coefficient
// 3*triangles / #wedges (0 when there are no wedges).
func ClusteringCoefficient(g *Graph) float64 {
	wedges := 0
	for u := 0; u < g.N(); u++ {
		d := g.Degree(u)
		wedges += d * (d - 1) / 2
	}
	if wedges == 0 {
		return 0
	}
	return 3 * float64(TriangleCount(g)) / float64(wedges)
}

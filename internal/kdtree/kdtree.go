// Package kdtree provides a k-d tree over float64 points for the Euclidean
// nearest-neighbor queries the sparse assignment pipeline runs against raw
// embedding rows (REGAL, CONE, GRASP).
//
// The tree is bucketed: internal nodes carry only a split axis and value,
// and points live in leaf buckets of up to leafSize entries, reordered into
// one contiguous backing array at build time. Queries are iterative (an
// explicit visit stack instead of recursion) and allocation-free in steady
// state when the caller supplies a reusable Scratch — the layout that lets
// assign.TopK over an embedding issue millions of queries without garbage.
package kdtree

import (
	"math"
	"sort"
)

// leafSize is the bucket capacity. Buckets amortize the per-node traversal
// bookkeeping over a short linear scan, which is faster than a node-per-point
// tree for every dimension the tree path serves (the scan is contiguous; the
// pointer chase is not).
const leafSize = 24

// Tree is an immutable k-d tree over points of equal dimension.
type Tree struct {
	dim   int
	count int
	// pts holds the points reordered leaf-contiguous (row r at
	// pts[r*dim:(r+1)*dim]); ids maps a row back to the original point id.
	pts   []float64
	ids   []int32
	nodes []node
	root  int32
}

// node is either an internal split (axis >= 0: children left/right, split
// value on that axis) or a leaf (axis == -1: pts rows [left, right)).
type node struct {
	split       float64
	axis        int32
	left, right int32
}

// Build constructs a k-d tree over the given points. Points are copied into
// a contiguous internal layout; ids in query results are indices into the
// original slice. An empty slice yields a tree whose queries return no
// results. Construction is deterministic: splits sort by (coordinate, id).
func Build(points [][]float64) *Tree {
	t := &Tree{root: -1}
	if len(points) == 0 {
		return t
	}
	t.dim = len(points[0])
	t.count = len(points)
	perm := make([]int32, len(points))
	for i := range perm {
		perm[i] = int32(i)
	}
	t.pts = make([]float64, 0, len(points)*t.dim)
	t.ids = make([]int32, 0, len(points))
	t.nodes = make([]node, 0, 2*(len(points)/leafSize+1))
	s := &permSorter{points: points}
	t.root = t.build(points, perm, 0, s)
	return t
}

// permSorter sorts a permutation subrange by (coordinate on axis, id); one
// instance is reused across every split of a build so sort.Sort never
// allocates per call. axis < 0 sorts by id alone (leaf order).
type permSorter struct {
	perm   []int32
	points [][]float64
	axis   int
}

func (s *permSorter) Len() int      { return len(s.perm) }
func (s *permSorter) Swap(a, b int) { s.perm[a], s.perm[b] = s.perm[b], s.perm[a] }
func (s *permSorter) Less(a, b int) bool {
	ia, ib := s.perm[a], s.perm[b]
	if s.axis >= 0 {
		pa, pb := s.points[ia][s.axis], s.points[ib][s.axis]
		if pa != pb {
			return pa < pb
		}
	}
	return ia < ib
}

func (t *Tree) build(points [][]float64, perm []int32, depth int, s *permSorter) int32 {
	if len(perm) <= leafSize {
		// Leaf: store points in ascending id order. The scan then meets ids
		// ascending, so on exact distance ties the incumbent (lower id) is
		// kept by the heap's strict replacement rule.
		s.perm, s.axis = perm, -1
		sort.Sort(s)
		lo := int32(len(t.ids))
		for _, id := range perm {
			t.ids = append(t.ids, id)
			t.pts = append(t.pts, points[id]...)
		}
		t.nodes = append(t.nodes, node{axis: -1, left: lo, right: int32(len(t.ids))})
		return int32(len(t.nodes) - 1)
	}
	axis := depth % t.dim
	s.perm, s.axis = perm, axis
	sort.Sort(s)
	mid := len(perm) / 2
	idx := int32(len(t.nodes))
	t.nodes = append(t.nodes, node{axis: int32(axis), split: points[perm[mid]][axis]})
	l := t.build(points, perm[:mid], depth+1, s)
	r := t.build(points, perm[mid:], depth+1, s)
	t.nodes[idx].left, t.nodes[idx].right = l, r
	return idx
}

// result is a bounded max-heap entry: the root is the worst kept candidate
// (largest distance, then largest id), so evictions keep low ids on ties.
type result struct {
	dist float64 // squared distance
	id   int32
}

// visit is a pending subtree on the explicit search stack, with the lower
// bound on its distance to the query known when it was deferred (the squared
// split-plane gap; 0 for the near child, which is never prunable).
type visit struct {
	bound float64
	ni    int32
}

// Scratch holds the reusable per-query state of NearestKInto: the bounded
// result heap, the visit stack, and the output arrays. A zero Scratch is
// ready to use; after the first queries at a given k no further allocation
// occurs. A Scratch must not be shared between concurrent queries — give
// each worker goroutine its own.
type Scratch struct {
	heap  []result
	stack []visit
	ids   []int
	dists []float64
}

// NewScratch returns an empty Scratch ready for NearestKInto.
func NewScratch() *Scratch { return &Scratch{} }

// NearestKInto returns the ids and squared Euclidean distances of the k
// points nearest to q, ordered by increasing distance with ties broken by
// lower id. Fewer than k results are returned when the tree holds fewer
// points. The results are written into s: the returned slices alias s and
// are valid until the next query on it. With a warm Scratch a query
// performs no allocation. The result is a pure function of (tree, q, k), so
// queries on separate Scratches may run concurrently.
func (t *Tree) NearestKInto(q []float64, k int, s *Scratch) (ids []int, dists []float64) {
	if t.root == -1 || k <= 0 {
		return nil, nil
	}
	if k > t.count {
		k = t.count
	}
	h := s.heap[:0]
	if cap(h) < k {
		h = make([]result, 0, k)
	}
	stack := s.stack[:0]
	stack = append(stack, visit{0, t.root})
	// bound is the current worst kept distance, mirrored out of the heap root
	// so the hot leaf scan compares against a register, valid once len(h)==k.
	bound := math.Inf(1)
	dim := t.dim
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		// Re-check the prune bound at pop time: it may have tightened since
		// this subtree was deferred. Ties (==) must still descend — a point
		// exactly on the boundary can tie the worst distance with a lower id,
		// which the tie contract prefers.
		if len(h) == k && v.bound > bound {
			continue
		}
		nd := &t.nodes[v.ni]
		if nd.axis >= 0 {
			diff := q[nd.axis] - nd.split
			first, second := nd.left, nd.right
			if diff > 0 {
				first, second = second, first
			}
			// LIFO: push the far child first so the near child is explored
			// first and tightens the bound before the far side is considered.
			stack = append(stack, visit{diff * diff, second}, visit{0, first})
			continue
		}
		for r := nd.left; r < nd.right; r++ {
			p := t.pts[int(r)*dim : (int(r)+1)*dim]
			var d2 float64
			for c, pc := range p {
				d := pc - q[c]
				d2 += d * d
			}
			if len(h) < k {
				h = append(h, result{d2, t.ids[r]})
				heapSiftUp(h, len(h)-1)
				if len(h) == k {
					bound = h[0].dist
				}
				continue
			}
			if d2 > bound || (d2 == bound && t.ids[r] >= h[0].id) {
				continue
			}
			h[0] = result{d2, t.ids[r]}
			heapSiftDownN(h, 0, len(h))
			bound = h[0].dist
		}
	}
	s.stack = stack
	// In-place heap-sort: repeatedly swap the worst candidate to the tail,
	// yielding ascending (distance, id) order.
	s.heap = h
	for l := len(h) - 1; l > 0; l-- {
		h[0], h[l] = h[l], h[0]
		heapSiftDownN(h, 0, l)
	}
	if cap(s.ids) < len(h) {
		s.ids = make([]int, len(h))
		s.dists = make([]float64, len(h))
	}
	ids = s.ids[:len(h)]
	dists = s.dists[:len(h)]
	for i, r := range h {
		ids[i] = int(r.id)
		dists[i] = r.dist
	}
	return ids, dists
}

// resultWorse reports whether a is a worse candidate than b: farther, or at
// equal distance the larger id. The heap is a max-heap under this order.
func resultWorse(a, b result) bool {
	if a.dist != b.dist {
		return a.dist > b.dist
	}
	return a.id > b.id
}

func heapSiftUp(h []result, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !resultWorse(h[i], h[parent]) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func heapSiftDownN(h []result, i, length int) {
	for {
		l, r := 2*i+1, 2*i+2
		max := i
		if l < length && resultWorse(h[l], h[max]) {
			max = l
		}
		if r < length && resultWorse(h[r], h[max]) {
			max = r
		}
		if max == i {
			return
		}
		h[i], h[max] = h[max], h[i]
		i = max
	}
}

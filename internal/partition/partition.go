// Package partition is the framework-level divide-and-conquer layer of the
// study: it co-partitions two graphs into K matched cluster pairs using
// label-invariant structural node signatures (degree profiles in the spirit
// of Degree Matrix Comparison, Wang & Chin 2024, and the canonical-labeling
// seeding of Dai et al. 2018), aligns every shard pair independently with
// any inner algo.Aligner on the shared worker pool, and stitches the shard
// mappings into one global mapping, then re-bids the cross-shard boundary
// with refine.Rounds. It is what lets an n=100k alignment run on commodity
// memory: no stage ever materializes an n×n structure, only per-shard ones.
//
// Everything in this package is deterministic: no RNG is consumed anywhere,
// all parallel fan-outs write to disjoint pre-allocated slots, and the only
// solvers invoked (assign.SolveJV on the K×K cluster-matching problem,
// SortGreedy on the boundary re-bid) are themselves deterministic for any
// worker count. Partitioning the same inputs therefore yields the
// same shards, the same stitched mapping and the same refinement trajectory
// regardless of Workers. See DESIGN.md §15 for the full contract.
package partition

import (
	"math"
	"sort"

	"graphalign/internal/assign"
	"graphalign/internal/graph"
	"graphalign/internal/matrix"
)

// sigDims is the width of the per-node structural signature: degree, the
// sum and max of neighbor degrees, and second and third WL-style rounds
// aggregating the neighbors' previous-round sums. Each component is
// invariant under node relabeling, so two isomorphic graphs produce
// identical multisets of signatures — the property the co-partitioner's
// cluster-recovery guarantee rests on. Depth matters at scale: on a
// powerlaw graph at n=100k the low-degree core leaves tie runs of ~270
// nodes after one round; the third round shrinks the longest run to 1,
// which is what keeps sorted-signature chunk correspondence intact when
// ties would otherwise straddle chunk boundaries.
const sigDims = 5

// nodeSignatures computes the label-invariant structural signature of every
// node. Neighbors are iterated in the graph's canonical sorted order, so
// float summation order — and hence the signature bits — depends only on
// the structure, never on construction history.
func nodeSignatures(g *graph.Graph) [][sigDims]float64 {
	n := g.N()
	deg := g.Degrees()
	sig := make([][sigDims]float64, n)
	sum1 := make([]float64, n)
	for u := 0; u < n; u++ {
		var sum, max float64
		for _, v := range g.Neighbors(u) {
			d := float64(deg[v])
			sum += d
			if d > max {
				max = d
			}
		}
		sum1[u] = sum
		sig[u][0] = float64(deg[u])
		sig[u][1] = sum
		sig[u][2] = max
	}
	sum2 := make([]float64, n)
	for u := 0; u < n; u++ {
		var s float64
		for _, v := range g.Neighbors(u) {
			s += sum1[v]
		}
		sum2[u] = s
		sig[u][3] = s
	}
	for u := 0; u < n; u++ {
		var s float64
		for _, v := range g.Neighbors(u) {
			s += sum2[v]
		}
		sig[u][4] = s
	}
	return sig
}

// signatureOrder sorts node ids lexicographically by signature, with the id
// itself as the final tie-break. Only structurally indistinguishable nodes
// (equal signatures) can tie, and those are interchangeable for chunking
// purposes — the id tie-break just pins one deterministic order.
func signatureOrder(sig [][sigDims]float64) []int {
	order := make([]int, len(sig))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool {
		u, v := order[x], order[y]
		for d := 0; d < sigDims; d++ {
			if sig[u][d] != sig[v][d] {
				return sig[u][d] < sig[v][d]
			}
		}
		return u < v
	})
	return order
}

// chunkSizes splits n items into k contiguous chunks of near-equal size
// (the standard floor-cut split: chunk i covers [i*n/k, (i+1)*n/k)).
func chunkSizes(n, k int) []int {
	sizes := make([]int, k)
	for i := 0; i < k; i++ {
		sizes[i] = (i+1)*n/k - i*n/k
	}
	return sizes
}

// cutChunks slices the signature-sorted order into chunks of the given
// sizes, each chunk's members re-sorted ascending by id so induced
// subgraphs get a canonical local numbering.
func cutChunks(order []int, sizes []int) [][]int {
	chunks := make([][]int, len(sizes))
	pos := 0
	for i, s := range sizes {
		c := append([]int(nil), order[pos:pos+s]...)
		sort.Ints(c)
		chunks[i] = c
		pos += s
	}
	return chunks
}

// clusterFeatureDims: size, internal-edge count, mean degree, mean
// neighbor-degree sum, plus an 8-bucket log-degree histogram.
const clusterFeatureDims = 4 + 8

// clusterFeatures summarizes one cluster into a small label-invariant
// feature vector used to match clusters *across* graphs. Counts enter in
// log scale so that matching is driven by shape, not raw size, and the
// degree histogram is normalized to a distribution.
func clusterFeatures(g *graph.Graph, sig [][sigDims]float64, members []int) [clusterFeatureDims]float64 {
	var f [clusterFeatureDims]float64
	if len(members) == 0 {
		return f
	}
	in := make(map[int]bool, len(members))
	for _, u := range members {
		in[u] = true
	}
	internal := 0
	var degSum, nbrSum float64
	for _, u := range members {
		d := 0
		for _, v := range g.Neighbors(u) {
			d++
			if in[v] && u < v {
				internal++
			}
		}
		degSum += float64(d)
		nbrSum += sig[u][1]
		b := 0
		for x := d; x > 0; x >>= 1 {
			b++
		}
		if b > 7 {
			b = 7
		}
		f[4+b]++
	}
	size := float64(len(members))
	f[0] = math.Log1p(size)
	f[1] = math.Log1p(float64(internal))
	f[2] = degSum / size
	f[3] = nbrSum / size
	for i := 4; i < clusterFeatureDims; i++ {
		f[i] /= size
	}
	return f
}

// CoPartition is a matched K-way co-partition of a source and a target
// graph: SrcClusters[i] and DstClusters[i] are a shard pair, with
// |SrcClusters[i]| <= |DstClusters[i]| guaranteed (the invariant every
// aligner requires of its inputs). Cluster members are ascending original
// node ids.
type CoPartition struct {
	// K is the effective shard count (the requested K clamped to the
	// smaller graph's node count).
	K int
	// SrcClusters[i] pairs with DstClusters[i].
	SrcClusters [][]int
	DstClusters [][]int
	// Match records the cluster correspondence found by signature matching
	// before the target clusters were reordered: Match[i] is the index, in
	// the target graph's own signature order, of the cluster paired with
	// source cluster i. On a graph and a relabeling of itself this is the
	// identity permutation (up to ties between structurally identical
	// nodes) — the property the co-partitioner tests pin.
	Match []int
}

// Graphs co-partitions src and dst into k matched cluster pairs. Nodes of
// each graph are sorted by structural signature and cut into k contiguous
// quantile chunks; chunks are then matched across the graphs by solving a
// k×k assignment over cluster feature distances (assign.SolveJV), and
// source chunk sizes are repaired along the signature order so every source
// cluster fits inside its matched target cluster. k is clamped to
// [1, min(n_src, n_dst)]. Requires n_src <= n_dst, like every aligner
// entry point.
func Graphs(src, dst *graph.Graph, k int) *CoPartition {
	n1, n2 := src.N(), dst.N()
	if k > n1 {
		k = n1
	}
	if k > n2 {
		k = n2
	}
	if k < 1 {
		k = 1
	}
	srcSig, dstSig := nodeSignatures(src), nodeSignatures(dst)
	srcOrder, dstOrder := signatureOrder(srcSig), signatureOrder(dstSig)
	srcSizes, dstSizes := chunkSizes(n1, k), chunkSizes(n2, k)
	dstChunks := cutChunks(dstOrder, dstSizes)

	// Provisional source chunks only exist to compute matching features; the
	// final chunks are re-cut after capacity repair below.
	srcChunks := cutChunks(srcOrder, srcSizes)
	match := matchClusters(src, dst, srcSig, dstSig, srcChunks, dstChunks)

	dstBySrc := make([][]int, k)
	caps := make([]int, k)
	for i, j := range match {
		dstBySrc[i] = dstChunks[j]
		caps[i] = len(dstChunks[j])
	}
	fitted := fitSizes(srcSizes, caps, n1)
	srcChunks = cutChunks(srcOrder, fitted)

	return &CoPartition{K: k, SrcClusters: srcChunks, DstClusters: dstBySrc, Match: match}
}

// matchClusters solves the K×K cluster correspondence: similarity is a
// monotone decreasing function of the L2 feature distance, with a tiny
// diagonal preference so that feature-identical chunk sets (a graph aligned
// with itself, or quantile chunks that tie exactly) resolve to the natural
// same-quantile pairing instead of an arbitrary optimal one.
func matchClusters(src, dst *graph.Graph, srcSig, dstSig [][sigDims]float64, srcChunks, dstChunks [][]int) []int {
	k := len(srcChunks)
	fs := make([][clusterFeatureDims]float64, k)
	fd := make([][clusterFeatureDims]float64, k)
	for i := 0; i < k; i++ {
		fs[i] = clusterFeatures(src, srcSig, srcChunks[i])
		fd[i] = clusterFeatures(dst, dstSig, dstChunks[i])
	}
	sim := matrix.NewDense(k, k)
	for i := 0; i < k; i++ {
		row := sim.Row(i)
		for j := 0; j < k; j++ {
			var d2 float64
			for t := 0; t < clusterFeatureDims; t++ {
				diff := fs[i][t] - fd[j][t]
				d2 += diff * diff
			}
			row[j] = 1 / (1 + d2)
			if i == j {
				row[j] += 1e-9
			}
		}
	}
	return assign.SolveJV(sim)
}

// fitSizes repairs the source chunk sizes so that chunk i never exceeds its
// matched target capacity: each chunk first takes min(ideal, cap), then the
// displaced remainder is absorbed front-to-back by chunks with spare
// capacity. Feasible because total source size <= total target capacity.
func fitSizes(ideal, caps []int, total int) []int {
	sizes := make([]int, len(ideal))
	assigned := 0
	for i := range sizes {
		s := ideal[i]
		if s > caps[i] {
			s = caps[i]
		}
		sizes[i] = s
		assigned += s
	}
	for i := 0; i < len(sizes) && assigned < total; i++ {
		spare := caps[i] - sizes[i]
		if spare > total-assigned {
			spare = total - assigned
		}
		sizes[i] += spare
		assigned += spare
	}
	return sizes
}

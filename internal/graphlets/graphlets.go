// Package graphlets counts, for every node, the graphlet orbits of all
// connected graphlets with 2–4 nodes. These per-node orbit counts form the
// "graphlet degree vector" signatures GRAAL matches on.
//
// Orbit numbering follows the standard Pržulj enumeration:
//
//	orbit  0: degree (G0, the single edge)
//	orbit  1: end of a 2-path            (G1)
//	orbit  2: middle of a 2-path         (G1)
//	orbit  3: triangle node              (G2)
//	orbit  4: end of a 3-path            (G3)
//	orbit  5: middle of a 3-path         (G3)
//	orbit  6: leaf of a claw / 3-star    (G4)
//	orbit  7: center of a claw           (G4)
//	orbit  8: cycle node of C4           (G5)
//	orbit  9: leaf of a tailed triangle  (G6, the "paw")
//	orbit 10: tail-attachment node       (G6)
//	orbit 11: the triangle node opposite (G6)
//	orbit 12: degree-2 node of a diamond (G7)
//	orbit 13: degree-3 node of a diamond (G7)
//	orbit 14: node of K4                 (G8)
//
// Counting is combinatorial in the style of ORCA (Hočevar & Demšar, "A
// combinatorial approach to graphlet counting", Bioinformatics 2014),
// restricted to 4-node graphlets: no subgraph is enumerated. Per-edge
// triangle counts t(u,v), per-node triangle counts T(x) and the 2-hop sums
// S(a) = Σ_{b∈N(a)} (d_b−1) are computed once; then, for each node x of
// degree d, one stamped mark over N(x) yields the common-neighbour counts
// c_w of the 2-hop nodes w ∉ N[x] and the K4s through x, and the orbit
// counts follow from linear relations between these quantities and the
// induced counts:
//
//	o0  = d,  o3 = T(x),  o2 = C(d,2) − o3,  o1 = S(x) − 2·o3
//	o14 = number of K4s containing x
//	o13 = Σ_a C(t(x,a),2) − 3·o14
//	o12 = Σ_{(a,b) ⊆ N(x)} (t(a,b)−1) − 3·o14
//	o10 = T(x)·(d−2) − 2·o13 − 3·o14
//	o7  = C(d,3) − o10 − o13 − o14
//	o8  = Σ_w C(c_w,2) − o12
//	o11 = Σ_{(a,b) ⊆ N(x)} (d_a+d_b−4) − 2·o12 − 2·o13 − 6·o14
//	o5  = Σ_a (d−1)(d_a−1) − 2·o3 − o11 − 2·o10 − 2·o8 − 4·o13 − 2·o12 − 6·o14
//	o9  = Σ_a (T(a)−t(x,a)) − 2·o12 − 3·o14
//	o4  = Σ_a (S(a)−(d−1)) − 2·o3 − o11 − 2·o8 − 2·o9 − 2·o13 − 4·o12 − 6·o14
//	o6  = Σ_a C(d_a−1,2) − o9 − o11 − o13 − 2·o12 − 3·o14
//
// where a ranges over N(x) and (a,b) ⊆ N(x) over the edges between two
// neighbours of x. Each left-hand sum counts walks or neighbour pairs; the
// subtracted terms remove the denser graphlets those walks also close. All
// arithmetic is exact int64, so the counts equal an exhaustive enumeration.
// The cost is O(Σ_v deg(v)²) plus, for the K4s, one sorted-list merge per
// edge inside each neighbourhood, i.e. three per triangle.
package graphlets

import (
	"graphalign/internal/graph"
)

// NumOrbits is the number of orbits for graphlets of 2-4 nodes.
const NumOrbits = 15

// Counts holds per-node orbit counts: Counts[u][o] is how many times node u
// touches orbit o. Count returns rows that share one flat backing array.
type Counts [][]float64

// Count computes the exact orbit counts for every node of g with the
// combinatorial relations in the package documentation, in O(Σ_v deg(v)²)
// time and O(n + m) scratch space.
func Count(g *graph.Graph) Counts {
	n := g.N()
	flat := make([]float64, n*NumOrbits)
	c := make(Counts, n)
	for u := range c {
		c[u] = flat[u*NumOrbits : (u+1)*NumOrbits : (u+1)*NumOrbits]
	}
	off := make([]int, n+1)
	for u := 0; u < n; u++ {
		off[u+1] = off[u] + g.Degree(u)
	}

	// tri[off[u]+i] is t(u, Neighbors(u)[i]): the triangles on that edge.
	// mark[v] == u+1 stamps v ∈ N(u) for the node u currently examined.
	tri := make([]int64, off[n])
	mark := make([]int, n)
	for u := 0; u < n; u++ {
		nu := g.Neighbors(u)
		for _, v := range nu {
			mark[v] = u + 1
		}
		for i, v := range nu {
			if v < u {
				continue
			}
			var t int64
			ju := 0
			for j, w := range g.Neighbors(v) {
				if w == u {
					ju = j
				} else if mark[w] == u+1 {
					t++
				}
			}
			tri[off[u]+i] = t
			tri[off[v]+ju] = t
		}
	}
	triNode := make([]int64, n) // T(x)
	twoHop := make([]int64, n)  // S(x)
	for u := 0; u < n; u++ {
		var t, s int64
		for i, v := range g.Neighbors(u) {
			t += tri[off[u]+i]
			s += int64(g.Degree(v) - 1)
		}
		triNode[u] = t / 2
		twoHop[u] = s
	}

	// common[w] is c_w, the common neighbours of x and a 2-hop node w;
	// touched lists the w with common[w] > 0 so the reset is O(touched).
	common := make([]int64, n)
	var touched []int
	for x := 0; x < n; x++ {
		nx := g.Neighbors(x)
		d := int64(len(nx))
		stamp := x + 1
		for _, a := range nx {
			mark[a] = stamp
		}
		var (
			pairTri  int64 // Σ_a C(t(x,a),2)
			triAway  int64 // Σ_a (T(a) − t(x,a))
			walks3   int64 // Σ_a (S(a) − (d−1))
			leafPair int64 // Σ_a C(d_a−1,2)
			degAway  int64 // Σ_a (d_a−1)
			edgeTri  int64 // Σ_{(a,b)⊆N(x)} (t(a,b)−1)
			edgeDeg  int64 // Σ_{(a,b)⊆N(x)} (d_a+d_b−4)
			k4       int64
		)
		touched = touched[:0]
		for ia, a := range nx {
			txa := tri[off[x]+ia]
			na := g.Neighbors(a)
			da := int64(len(na))
			pairTri += txa * (txa - 1) / 2
			triAway += triNode[a] - txa
			walks3 += twoHop[a] - (d - 1)
			leafPair += (da - 1) * (da - 2) / 2
			degAway += da - 1
			for ib, b := range na {
				if b == x {
					continue
				}
				if mark[b] != stamp {
					if common[b] == 0 {
						touched = append(touched, b)
					}
					common[b]++
					continue
				}
				if b < a {
					continue
				}
				nb := g.Neighbors(b)
				edgeTri += tri[off[a]+ib] - 1
				edgeDeg += da + int64(len(nb)) - 4
				k4 += commonMarked(na[ib+1:], nb, mark, stamp)
			}
		}
		var cycles int64 // Σ_w C(c_w,2)
		for _, w := range touched {
			cw := common[w]
			cycles += cw * (cw - 1) / 2
			common[w] = 0
		}

		t := triNode[x]
		o14 := k4
		o13 := pairTri - 3*o14
		o12 := edgeTri - 3*o14
		o10 := t*(d-2) - 2*o13 - 3*o14
		o7 := d*(d-1)*(d-2)/6 - o10 - o13 - o14
		o8 := cycles - o12
		o11 := edgeDeg - 2*o12 - 2*o13 - 6*o14
		o5 := (d-1)*degAway - 2*t - o11 - 2*o10 - 2*o8 - 4*o13 - 2*o12 - 6*o14
		o9 := triAway - 2*o12 - 3*o14
		o4 := walks3 - 2*t - o11 - 2*o8 - 2*o9 - 2*o13 - 4*o12 - 6*o14
		o6 := leafPair - o9 - o11 - o13 - 2*o12 - 3*o14

		row := c[x]
		for o, v := range [NumOrbits]int64{
			d, twoHop[x] - 2*t, d*(d-1)/2 - t, t,
			o4, o5, o6, o7, o8, o9, o10, o11, o12, o13, o14,
		} {
			row[o] = float64(v)
		}
	}
	return c
}

// commonMarked counts the elements shared by the ascending lists p and q
// that carry the given stamp — with p = the part of N(a) above b and
// q = N(b), the nodes c > b closing a triangle (a, b, c) inside N(x).
func commonMarked(p, q []int, mark []int, stamp int) int64 {
	var k int64
	i, j := 0, 0
	for i < len(p) && j < len(q) {
		switch {
		case p[i] < q[j]:
			i++
		case p[i] > q[j]:
			j++
		default:
			if mark[p[i]] == stamp {
				k++
			}
			i++
			j++
		}
	}
	return k
}

// OrbitWeights returns the GRAAL orbit weights w_o = 1 - log(o_count)/log(15)
// style weighting: orbits touching more nodes of their graphlet are less
// discriminative. Following GRAAL, each orbit o is weighted by
// 1 - log(a_o)/log(max_a) where a_o is the number of orbits that "affect"
// orbit o; we use the standard published values for orbits 0..14.
func OrbitWeights() [NumOrbits]float64 {
	// Dependency counts for orbits 0..14 (from the GRAAL paper's
	// formulation restricted to 4-node graphlets).
	a := [NumOrbits]float64{1, 2, 2, 2, 2, 3, 2, 3, 3, 3, 4, 4, 4, 4, 4}
	var w [NumOrbits]float64
	const logMax = 1.3862943611198906 // log(4)
	for o, ao := range a {
		w[o] = 1 - logOf(ao)/logMax
		if w[o] < 0.1 {
			w[o] = 0.1
		}
	}
	return w
}

func logOf(x float64) float64 {
	// tiny local ln to avoid importing math for one call site
	switch x {
	case 1:
		return 0
	case 2:
		return 0.6931471805599453
	case 3:
		return 1.0986122886681098
	default:
		return 1.3862943611198906
	}
}

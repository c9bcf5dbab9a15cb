package partition

import (
	"context"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"graphalign/internal/algo"
	"graphalign/internal/algo/regal"
	"graphalign/internal/assign"
	"graphalign/internal/gen"
	"graphalign/internal/graph"
	"graphalign/internal/noise"
	"graphalign/internal/parallel"
)

// refineReference is the straightforward boundary refinement: one map of
// agreement counts per row, fully sorted before the top refineCandidates
// are kept, with map-based pool bookkeeping. refine must reproduce it
// exactly; it is kept here as the oracle.
func refineReference(ctx context.Context, src, dst *graph.Graph, cp *CoPartition, mapping []int, opts Options) (boundarySize, rounds, moved int) {
	n1, n2 := src.N(), dst.N()
	shardOf := make([]int, n1)
	for s, members := range cp.SrcClusters {
		for _, u := range members {
			shardOf[u] = s
		}
	}
	type bnode struct{ u, cross int }
	var bn []bnode
	for u := 0; u < n1; u++ {
		cross := 0
		for _, w := range src.Neighbors(u) {
			if shardOf[w] != shardOf[u] {
				cross++
			}
		}
		if cross > 0 {
			bn = append(bn, bnode{u, cross})
		}
	}
	sort.Slice(bn, func(a, b int) bool {
		if bn[a].cross != bn[b].cross {
			return bn[a].cross > bn[b].cross
		}
		return bn[a].u < bn[b].u
	})
	frac := opts.BoundaryFrac
	if frac <= 0 {
		frac = defaultBoundaryFrac
	}
	limit := int(frac * float64(n1))
	if limit < 1 {
		limit = 1
	}
	if len(bn) > limit {
		bn = bn[:limit]
	}
	if len(bn) == 0 {
		return 0, 0, 0
	}
	rows := make([]int, len(bn))
	for i, b := range bn {
		rows[i] = b.u
	}
	sort.Ints(rows)
	boundarySize = len(rows)
	inB := make([]bool, n1)
	for _, u := range rows {
		inB[u] = true
	}

	maxRounds := opts.RefineRounds
	if maxRounds == 0 {
		maxRounds = defaultRefineRounds
	}
	deg1, deg2 := src.Degrees(), dst.Degrees()

	for round := 0; round < maxRounds; round++ {
		if ctx.Err() != nil {
			return boundarySize, rounds, moved
		}
		owner := make([]int, n2)
		for v := range owner {
			owner[v] = -1
		}
		for u, v := range mapping {
			if v >= 0 {
				owner[v] = u
			}
		}

		// Per-row candidate scoring, fanned out with one writer per slot.
		type cand struct {
			v     int
			score float64 // composite bid value
			agree float64 // pure neighborhood agreement (the objective)
		}
		rowCands := make([][]cand, len(rows))
		parallel.For(opts.Workers, len(rows), func(r int) {
			u := rows[r]
			agree := make(map[int]float64)
			for _, w := range src.Neighbors(u) {
				t := mapping[w]
				if t < 0 {
					continue
				}
				for _, v := range dst.Neighbors(t) {
					if owner[v] == -1 || inB[owner[v]] {
						agree[v]++
					}
				}
			}
			cur := mapping[u]
			if cur >= 0 {
				if _, ok := agree[cur]; !ok {
					agree[cur] = 0
				}
			}
			cands := make([]cand, 0, len(agree))
			for v, a := range agree {
				score := a + 0.25/(1+absInt(deg1[u]-deg2[v]))
				if v == cur {
					score += 0.5
				}
				cands = append(cands, cand{v: v, score: score, agree: a})
			}
			sort.Slice(cands, func(x, y int) bool {
				if cands[x].score != cands[y].score {
					return cands[x].score > cands[y].score
				}
				return cands[x].v < cands[y].v
			})
			if len(cands) > refineCandidates {
				cands = cands[:refineCandidates]
			}
			rowCands[r] = cands
		})

		// Rows with no candidates keep their assignment and sit the auction
		// out; the remaining rows bid over the union of their candidates.
		var live []int
		poolSet := make(map[int]bool)
		for r, cands := range rowCands {
			if len(cands) == 0 {
				continue
			}
			live = append(live, r)
			for _, c := range cands {
				poolSet[c.v] = true
			}
		}
		if len(live) == 0 {
			return boundarySize, rounds, moved
		}
		// The auction needs Rows <= Cols. Grow the pool first with the live
		// rows' own current targets (they are freed when the round is
		// applied, so reassigning them keeps the mapping injective), then
		// with unowned targets; since n2 >= n1 this always reaches
		// |pool| >= |live|, so the guard below is purely defensive.
		for _, r := range live {
			if v := mapping[rows[r]]; v >= 0 {
				poolSet[v] = true
			}
		}
		for v := 0; v < n2 && len(poolSet) < len(live); v++ {
			if owner[v] == -1 {
				poolSet[v] = true
			}
		}
		if len(poolSet) < len(live) {
			return boundarySize, rounds, moved
		}
		pool := make([]int, 0, len(poolSet))
		for v := range poolSet {
			pool = append(pool, v)
		}
		sort.Ints(pool)
		colOf := make(map[int]int, len(pool))
		for j, v := range pool {
			colOf[v] = j
		}

		kk := refineCandidates
		if len(pool) < kk {
			kk = len(pool)
		}
		c := &assign.Candidates{
			Rows: len(live), Cols: len(pool), K: kk,
			Col: make([]int, len(live)*kk),
			Val: make([]float64, len(live)*kk),
			Len: make([]int, len(live)),
		}
		for li, r := range live {
			cands := rowCands[r]
			if len(cands) > kk {
				cands = cands[:kk]
			}
			c.Len[li] = len(cands)
			for ci, cd := range cands {
				c.Col[li*kk+ci] = colOf[cd.v]
				c.Val[li*kk+ci] = cd.score
			}
			for ci := len(cands); ci < kk; ci++ {
				c.Col[li*kk+ci] = -1
			}
		}
		sol, _, _, ok := assign.SolveAuction(c, opts.Workers)
		if !ok {
			// The candidate graph left some row unmatchable; fall back to the
			// deterministic sparse greedy, which always yields an injective
			// assignment. The acceptance gate below still protects quality.
			sol = assign.SolveGreedySparse(c)
		}

		// One-step acceptance on the pure agreement objective, measured
		// against the mapping the bids were computed from.
		agreeOf := func(r, v int) float64 {
			if v < 0 {
				return 0
			}
			for _, cd := range rowCands[r] {
				if cd.v == v {
					return cd.agree
				}
			}
			return 0
		}
		var before, after float64
		changed := 0
		for li, r := range live {
			oldV := mapping[rows[r]]
			newV := -1
			if sol[li] >= 0 {
				newV = pool[sol[li]]
			}
			before += agreeOf(r, oldV)
			after += agreeOf(r, newV)
			if newV != oldV {
				changed++
			}
		}
		if after <= before || changed == 0 {
			return boundarySize, rounds, moved
		}
		for _, r := range live {
			mapping[rows[r]] = -1
		}
		for li, r := range live {
			if sol[li] >= 0 {
				mapping[rows[r]] = pool[sol[li]]
			}
		}
		rounds++
		moved += changed
	}
	return boundarySize, rounds, moved
}

// refinePair is one instance of the oracle test; truth is nil when dst is
// an unrelated graph.
type refinePair struct {
	name     string
	src, dst *graph.Graph
	truth    []int
}

func refinePairs(t *testing.T) []refinePair {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	// Holme–Kim powerlaw graphs have hubs whose neighbourhoods dominate
	// the candidate scores.
	g := gen.PowerlawCluster(160, 4, 0.5, rng)
	noisy, err := noise.Apply(g, noise.OneWay, 0.02, noise.Options{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return []refinePair{
		{"powerlaw-noisy", noisy.Source, noisy.Target, noisy.TrueMap},
		{"unrelated-wider", gen.BarabasiAlbert(100, 3, rng), gen.PowerlawCluster(120, 3, 0.3, rng), nil},
	}
}

// stitchedMapping imitates a stitched shard mapping: within each shard
// pair most source nodes keep their true target when it lies in the paired
// cluster, the rest take random free targets of that cluster, and about a
// tenth stay unmatched (-1).
func stitchedMapping(cp *CoPartition, truth []int, n1 int, rng *rand.Rand) []int {
	mapping := make([]int, n1)
	for i, members := range cp.SrcClusters {
		inCluster := make(map[int]bool)
		for _, v := range cp.DstClusters[i] {
			inCluster[v] = true
		}
		used := make(map[int]bool)
		var rest []int
		for _, u := range members {
			if truth != nil && inCluster[truth[u]] && rng.Float64() < 0.8 {
				mapping[u] = truth[u]
				used[truth[u]] = true
			} else {
				rest = append(rest, u)
			}
		}
		free := slices.Clone(cp.DstClusters[i])
		rng.Shuffle(len(free), func(a, b int) { free[a], free[b] = free[b], free[a] })
		for _, u := range rest {
			mapping[u] = -1
			if rng.Float64() < 0.1 {
				continue
			}
			for len(free) > 0 && used[free[0]] {
				free = free[1:]
			}
			if len(free) > 0 {
				mapping[u] = free[0]
				used[free[0]] = true
			}
		}
	}
	return mapping
}

// randomMapping is a random partial injection with about 15% of the source
// nodes unmatched.
func randomMapping(n1, n2 int, rng *rand.Rand) []int {
	perm := rng.Perm(n2)[:n1]
	for u := range perm {
		if rng.Float64() < 0.15 {
			perm[u] = -1
		}
	}
	return perm
}

// TestRefineMatchesReference pins refine to the map-and-sort reference:
// the refined mapping, the boundary size, the applied rounds and the moved
// count must be identical for every shard count, boundary cap, round cap,
// starting mapping and worker count.
func TestRefineMatchesReference(t *testing.T) {
	ctx := context.Background()
	var totalRounds, totalMoved int
	for _, p := range refinePairs(t) {
		rng := rand.New(rand.NewSource(5))
		for _, k := range []int{2, 4, 8} {
			cp := Graphs(p.src, p.dst, k)
			starts := map[string][]int{
				"stitched": stitchedMapping(cp, p.truth, p.src.N(), rng),
				"random":   randomMapping(p.src.N(), p.dst.N(), rng),
			}
			for _, start := range []string{"stitched", "random"} {
				for _, frac := range []float64{1, 0.25} {
					for _, rounds := range []int{1, 2, 3} {
						for _, workers := range []int{1, 4} {
							opts := Options{K: k, Workers: workers, BoundaryFrac: frac, RefineRounds: rounds}
							want := slices.Clone(starts[start])
							wb, wr, wm := refineReference(ctx, p.src, p.dst, cp, want, opts)
							got := slices.Clone(starts[start])
							gb, gr, gm := refine(ctx, p.src, p.dst, cp, got, opts)
							if gb != wb || gr != wr || gm != wm {
								t.Fatalf("%s K=%d %s frac=%v rounds=%d workers=%d: (boundary, rounds, moved) = (%d, %d, %d), reference (%d, %d, %d)",
									p.name, k, start, frac, rounds, workers, gb, gr, gm, wb, wr, wm)
							}
							if !slices.Equal(got, want) {
								t.Fatalf("%s K=%d %s frac=%v rounds=%d workers=%d: mapping differs from reference",
									p.name, k, start, frac, rounds, workers)
							}
							totalRounds += gr
							totalMoved += gm
						}
					}
				}
			}
		}
	}
	if totalRounds == 0 || totalMoved == 0 {
		t.Fatalf("no refinement round was applied (rounds %d, moved %d); the comparison is vacuous", totalRounds, totalMoved)
	}
}

// BenchmarkRefine times boundary refinement alone on the sharded benchmark
// shape: a 4000-node Holme–Kim pair with 1% one-way noise, K=8, starting
// from the stitched mapping of REGAL shards on top-16 candidates.
func BenchmarkRefine(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := gen.PowerlawCluster(4000, 5, 0.5, rng)
	pair, err := noise.Apply(g, noise.OneWay, 0.01, noise.Options{}, rng)
	if err != nil {
		b.Fatal(err)
	}
	mk := func() (algo.Aligner, error) { return regal.New(), nil }
	const k = 8
	ctx := context.Background()
	stitched, _, err := Align(ctx, mk, pair.Source, pair.Target, regal.New().DefaultAssignment(),
		Options{K: k, TopK: 16, RefineRounds: -1})
	if err != nil {
		b.Fatal(err)
	}
	cp := Graphs(pair.Source, pair.Target, k)
	mapping := make([]int, len(stitched))
	b.ReportAllocs()
	for b.Loop() {
		copy(mapping, stitched)
		refine(ctx, pair.Source, pair.Target, cp, mapping, Options{K: k, Workers: 1})
	}
}

package refine_test

import (
	"context"
	"fmt"
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
	"graphalign/internal/partition"
	"graphalign/internal/refine"
)

// refCandidates is the per-row candidate count the reference keeps; it
// equals the package's own.
const refCandidates = 8

// refineReference is the straightforward refinement: one map of agreement
// counts per row, fully sorted before the top refCandidates are kept, with
// map-based pool bookkeeping. refine.Rounds must reproduce it exactly; it
// is kept here as the oracle.
func refineReference(ctx context.Context, src, dst *graph.Graph, mapping, rows []int, maxRounds, workers int) (rounds, moved int) {
	if len(rows) == 0 {
		return 0, 0
	}
	n1, n2 := src.N(), dst.N()
	inB := make([]bool, n1)
	for _, u := range rows {
		inB[u] = true
	}
	deg1, deg2 := src.Degrees(), dst.Degrees()

	for round := 0; round < maxRounds; round++ {
		if ctx.Err() != nil {
			return rounds, moved
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
		parallel.For(workers, len(rows), func(r int) {
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
				d := deg1[u] - deg2[v]
				if d < 0 {
					d = -d
				}
				score := a + 0.25/(1+float64(d))
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
			if len(cands) > refCandidates {
				cands = cands[:refCandidates]
			}
			rowCands[r] = cands
		})

		// Rows with no candidates keep their assignment and sit the round
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
			return rounds, moved
		}
		// A row's current target can fall out of its top candidates, and
		// SortGreedy maps every live row only when Rows <= Cols. Grow the
		// pool first with the live rows' own current targets (they are
		// freed when the round is applied, so reassigning them keeps the
		// mapping injective), then with unowned targets; when n2 >= n1 this
		// always reaches |pool| >= |live|.
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
			return rounds, moved
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

		kk := refCandidates
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
		sol := assign.SolveGreedySparse(c)

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
			return rounds, moved
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
	return rounds, moved
}

// crossShardRows lists, ascending, the source nodes with an edge into
// another shard of cp: the rows partition.Align refines.
func crossShardRows(src *graph.Graph, cp *partition.CoPartition) []int {
	shardOf := make([]int, src.N())
	for s, members := range cp.SrcClusters {
		for _, u := range members {
			shardOf[u] = s
		}
	}
	var rows []int
	for u := range shardOf {
		for _, w := range src.Neighbors(u) {
			if shardOf[w] != shardOf[u] {
				rows = append(rows, u)
				break
			}
		}
	}
	return rows
}

// refinePair is one test instance; truth is nil when dst is an unrelated
// graph.
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
func stitchedMapping(cp *partition.CoPartition, truth []int, n1 int, rng *rand.Rand) []int {
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

// refineCase is one (pair, shard count, start) combination with the
// cross-shard rows of its co-partition.
type refineCase struct {
	name     string
	src, dst *graph.Graph
	rows     []int
	start    []int
}

// refineCases builds a stitched and a random start for every pair at
// K = 2, 4 and 8.
func refineCases(t *testing.T) []refineCase {
	t.Helper()
	var cases []refineCase
	for _, p := range refinePairs(t) {
		rng := rand.New(rand.NewSource(5))
		for _, k := range []int{2, 4, 8} {
			cp := partition.Graphs(p.src, p.dst, k)
			rows := crossShardRows(p.src, cp)
			stitched := stitchedMapping(cp, p.truth, p.src.N(), rng)
			random := randomMapping(p.src.N(), p.dst.N(), rng)
			for _, s := range []struct {
				name  string
				start []int
			}{{"stitched", stitched}, {"random", random}} {
				cases = append(cases, refineCase{
					name: fmt.Sprintf("%s/K=%d/%s", p.name, k, s.name),
					src:  p.src, dst: p.dst, rows: rows, start: s.start,
				})
			}
		}
	}
	return cases
}

// TestRefineMatchesReference pins refine.Rounds to the map-and-sort
// reference: the refined mapping, the applied rounds and the moved count
// must be identical for every shard count, round cap, starting mapping and
// worker count.
func TestRefineMatchesReference(t *testing.T) {
	ctx := context.Background()
	var totalRounds, totalMoved int
	for _, tc := range refineCases(t) {
		for _, maxRounds := range []int{1, 2, 3} {
			for _, workers := range []int{1, 4} {
				want := slices.Clone(tc.start)
				wr, wm := refineReference(ctx, tc.src, tc.dst, want, tc.rows, maxRounds, workers)
				got := slices.Clone(tc.start)
				gr, gm := refine.Rounds(ctx, tc.src, tc.dst, got, tc.rows, maxRounds, workers)
				if gr != wr || gm != wm {
					t.Fatalf("%s rounds=%d workers=%d: (rounds, moved) = (%d, %d), reference (%d, %d)",
						tc.name, maxRounds, workers, gr, gm, wr, wm)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s rounds=%d workers=%d: mapping differs from reference", tc.name, maxRounds, workers)
				}
				totalRounds += gr
				totalMoved += gm
			}
		}
	}
	if totalRounds == 0 || totalMoved == 0 {
		t.Fatalf("no refinement round was applied (rounds %d, moved %d); the comparison is vacuous", totalRounds, totalMoved)
	}
}

// TestRoundsInvariants checks what every caller of Rounds relies on,
// independent of the solver: the result is a partial injection, source
// nodes outside rows keep their target, a mapped row stays mapped, and the
// worker count does not change the result.
func TestRoundsInvariants(t *testing.T) {
	ctx := context.Background()
	moves := 0
	for _, tc := range refineCases(t) {
		var first []int
		var firstRounds, firstMoved int
		for _, workers := range []int{1, 4} {
			got := slices.Clone(tc.start)
			rounds, moved := refine.Rounds(ctx, tc.src, tc.dst, got, tc.rows, 3, workers)
			checkPartialInjection(t, tc.name, got, tc.dst.N())
			inRows := make([]bool, len(got))
			for _, u := range tc.rows {
				inRows[u] = true
			}
			for u, v := range got {
				old := tc.start[u]
				if !inRows[u] && v != old {
					t.Fatalf("%s workers=%d: node %d outside rows moved %d -> %d", tc.name, workers, u, old, v)
				}
				if old >= 0 && v < 0 {
					t.Fatalf("%s workers=%d: row %d lost its target %d", tc.name, workers, u, old)
				}
			}
			if first == nil {
				first, firstRounds, firstMoved = got, rounds, moved
				moves += moved
				continue
			}
			if rounds != firstRounds || moved != firstMoved || !slices.Equal(got, first) {
				t.Fatalf("%s: workers=%d gives (%d, %d) and a mapping that differ from workers=1 (%d, %d)",
					tc.name, workers, rounds, moved, firstRounds, firstMoved)
			}
		}
	}
	if moves == 0 {
		t.Fatal("no case moved a row; the invariants were checked on unchanged mappings only")
	}
}

// TestRoundsEmptyRows: with no rows there is nothing to re-bid.
func TestRoundsEmptyRows(t *testing.T) {
	tc := refineCases(t)[0]
	for _, rows := range [][]int{nil, {}} {
		got := slices.Clone(tc.start)
		if rounds, moved := refine.Rounds(context.Background(), tc.src, tc.dst, got, rows, 3, 1); rounds != 0 || moved != 0 {
			t.Fatalf("rows %v: (rounds, moved) = (%d, %d), want (0, 0)", rows, rounds, moved)
		}
		if !slices.Equal(got, tc.start) {
			t.Fatalf("rows %v: mapping changed", rows)
		}
	}
}

func checkPartialInjection(t *testing.T, name string, mapping []int, n2 int) {
	t.Helper()
	used := make([]bool, n2)
	for u, v := range mapping {
		if v < -1 || v >= n2 {
			t.Fatalf("%s: mapping[%d]=%d out of range [-1, %d)", name, u, v, n2)
		}
		if v >= 0 {
			if used[v] {
				t.Fatalf("%s: target %d assigned twice", name, v)
			}
			used[v] = true
		}
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
	src, dst := pair.Source, pair.Target
	ctx := context.Background()
	cp := partition.Graphs(src, dst, 8)
	shards := make([]partition.ShardMapping, cp.K)
	for i := range shards {
		sub1, _ := graph.InducedSubgraph(src, cp.SrcClusters[i])
		sub2, _ := graph.InducedSubgraph(dst, cp.DstClusters[i])
		a := regal.New()
		res, err := algo.Run(ctx, a, sub1, sub2, algo.Plan{Method: a.DefaultAssignment(), TopK: 16, Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		shards[i] = partition.ShardMapping{Src: cp.SrcClusters[i], Dst: cp.DstClusters[i], Local: res.Mapping}
	}
	stitched := partition.Stitch(src.N(), dst.N(), shards)
	rows := crossShardRows(src, cp)
	mapping := make([]int, len(stitched))
	b.ReportAllocs()
	for b.Loop() {
		copy(mapping, stitched)
		refine.Rounds(ctx, src, dst, mapping, rows, 2, 1) // partition.Align's round cap

	}
}

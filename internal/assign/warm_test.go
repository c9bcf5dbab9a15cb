package assign

import (
	"math/rand"
	"testing"

	"graphalign/internal/matrix"
)

// Satellite 3 (PR 10): an empty dirty set must make the warm start a pure
// replay — zero bidding rounds, byte-identical mapping, unchanged prices —
// including rectangular instances whose virtual padding rows must re-seat.
func TestWarmAuctionEmptyDirtyByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(10)
		m := n + rng.Intn(5) // includes rectangular n < m
		sim := matrix.NewDense(n, m)
		for i := range sim.Data {
			sim.Data[i] = rng.Float64()
		}
		c := TopK(DenseScorer{sim}, m, 1)
		cold, state, _, ok := SolveAuction(c, 1)
		if !ok {
			t.Fatalf("trial %d: cold solve failed", trial)
		}
		warm, wstate, wstats, ok := SolveAuctionWarm(c, cold, state, nil, 1)
		if !ok {
			t.Fatalf("trial %d: warm solve failed", trial)
		}
		if wstats.RebidRows != 0 {
			t.Fatalf("trial %d: stats = %+v, want 0 rebid rows", trial, wstats)
		}
		if wstats.Rounds != 0 {
			t.Fatalf("trial %d: empty dirty set ran %d rounds, want 0", trial, wstats.Rounds)
		}
		for i := range cold {
			if warm[i] != cold[i] {
				t.Fatalf("trial %d (n=%d m=%d): warm mapping differs at row %d: %d vs %d",
					trial, n, m, i, warm[i], cold[i])
			}
		}
		for j := range state.Price {
			if wstate.Price[j] != state.Price[j] {
				t.Fatalf("trial %d: price %d moved %v -> %v with no bids", trial, j, state.Price[j], wstate.Price[j])
			}
		}
		if wstate.FinalEps != state.FinalEps {
			t.Fatalf("trial %d: FinalEps drifted %v -> %v on unchanged candidates", trial, state.FinalEps, wstate.FinalEps)
		}
	}
}

// Satellite 3 (PR 10): across random edit streams, the warm-started auction's
// total stays within the Cols·FinalEps ε-scaling bound of the true optimum of
// each edited instance — the same contract the PR 5 auction-vs-JV harness
// pins for cold solves. Full candidate sets keep the candidate-graph optimum
// equal to the dense JV optimum.
func TestWarmAuctionAgreesWithJVAcrossEdits(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(8)
		m := n + rng.Intn(3)
		sim := matrix.NewDense(n, m)
		for i := range sim.Data {
			sim.Data[i] = rng.Float64()
		}
		c := TopK(DenseScorer{sim}, m, 1)
		mapping, state, _, ok := SolveAuction(c, 1)
		if !ok {
			t.Fatalf("trial %d: cold solve failed", trial)
		}
		// A stream of small perturbations, each warm-started from the last.
		for step := 0; step < 6; step++ {
			next := matrix.NewDense(n, m)
			copy(next.Data, sim.Data)
			for touched := 0; touched <= rng.Intn(3); touched++ {
				i := rng.Intn(n)
				for j := 0; j < m; j++ {
					if rng.Intn(2) == 0 {
						next.Set(i, j, rng.Float64())
					}
				}
			}
			cNext := TopK(DenseScorer{next}, m, 1)
			dirty := DiffRows(c, cNext)
			warm, wstate, wstats, ok := SolveAuctionWarm(cNext, mapping, state, dirty, 1)
			if !ok {
				t.Fatalf("trial %d step %d: warm solve failed", trial, step)
			}
			checkOneToOne(t, "warm-auction", warm, m)
			got := TotalSimilarity(next, warm)
			want := TotalSimilarity(next, SolveJV(next))
			if diff := want - got; diff > auctionTolerance(m, wstats) {
				t.Fatalf("trial %d step %d (n=%d m=%d, %d dirty): warm total %v vs JV %v, gap %v > tol %v",
					trial, step, n, m, len(dirty), got, want, diff, auctionTolerance(m, wstats))
			}
			sim, c, mapping, state = next, cNext, warm, wstate
		}
	}
}

// The feasibility repair pass: seeds pointing at columns outside the row's
// candidate list (or out of range) are dropped and re-bid rather than trusted,
// so a corrupted previous mapping degrades to extra work, not a wrong answer.
func TestWarmAuctionRepairsBadSeeds(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(6)
		m := n + rng.Intn(2)
		sim := matrix.NewDense(n, m)
		for i := range sim.Data {
			sim.Data[i] = rng.Float64()
		}
		c := TopK(DenseScorer{sim}, m, 1)
		mapping, state, _, ok := SolveAuction(c, 1)
		if !ok {
			t.Fatalf("trial %d: cold solve failed", trial)
		}
		bad := append([]int(nil), mapping...)
		bad[rng.Intn(n)] = -1
		bad[rng.Intn(n)] = m + 3 // out of range
		if n >= 2 {
			bad[0] = bad[1] // collision: second seed loses and re-bids
		}
		warm, _, wstats, ok := SolveAuctionWarm(c, bad, state, nil, 1)
		if !ok {
			t.Fatalf("trial %d: warm solve failed", trial)
		}
		checkOneToOne(t, "warm-repair", warm, m)
		got := TotalSimilarity(sim, warm)
		want := TotalSimilarity(sim, SolveJV(sim))
		if diff := want - got; diff > auctionTolerance(m, wstats) {
			t.Fatalf("trial %d: repaired warm total %v vs JV %v, gap %v > tol %v",
				trial, got, want, diff, auctionTolerance(m, wstats))
		}
		if wstats.RebidRows == 0 {
			t.Fatalf("trial %d: corrupted seeds reported zero rebid rows", trial)
		}
	}
}

// Dimension drift between the previous state and the new candidate set must
// signal cold-solve fallback, not panic or mis-seed.
func TestWarmAuctionRejectsShapeMismatch(t *testing.T) {
	sim := matrix.DenseFromRows([][]float64{{1, 0}, {0, 1}})
	c := TopK(DenseScorer{sim}, 2, 1)
	mapping, state, _, ok := SolveAuction(c, 1)
	if !ok {
		t.Fatal("cold solve failed")
	}
	if _, _, _, ok := SolveAuctionWarm(c, mapping[:1], state, nil, 1); ok {
		t.Error("short prevMapping accepted")
	}
	short := AuctionState{Price: state.Price[:1], FinalEps: state.FinalEps, Spread: state.Spread}
	if _, _, _, ok := SolveAuctionWarm(c, mapping, short, nil, 1); ok {
		t.Error("short price vector accepted")
	}
	// A dense-JV fallback leaves the empty state; the incremental session
	// relies on this rejection to solve cold after one.
	if _, _, _, ok := SolveAuctionWarm(c, SolveJV(sim), AuctionState{}, nil, 1); ok {
		t.Error("empty state accepted")
	}
}

package assign

import "math"

// SolveAuctionWarm re-solves the assignment over an edited candidate set,
// seeded from a previous solve's mapping and AuctionState. dirty lists the
// rows whose candidate lists changed since that solve — DiffRows(prevSet, c)
// over the very sets the two solves read, repair entries included — and
// every other row's list must be bitwise-unchanged. The solver seeds clean rows with their previous
// columns and re-bids only the dirty rows (plus any rows they displace), in a
// single phase at ε = max(new ε_final, prev.FinalEps).
//
// Correctness rests on two facts: auction prices only ever rise, and the
// previous solve left every clean (row, column, price) triple satisfying
// ε-complementary slackness at prev.FinalEps — which is at least as slack at
// the warm ε. The returned total is therefore within Cols*FinalEps of the
// optimum over the new candidate graph, the same contract as a cold
// SolveAuction. A feasibility repair pass drops (treats as dirty) any seed
// whose column is no longer among the row's candidates, is out of range, or
// collides with another seed, so a stale dirty set degrades performance, not
// correctness.
//
// When dirty is empty the solve runs zero bidding rounds and the returned
// mapping is byte-identical to prevMapping — the contract the incremental
// mode's empty-edit probe is pinned to.
//
// ok is false when the warm start is unusable (dimension mismatch between
// prev and c, an unmatchable candidate graph, or a tripped round cap);
// callers should fall back to a cold solve.
func SolveAuctionWarm(c *Candidates, prevMapping []int, prev AuctionState, dirty []int, workers int) ([]int, AuctionState, SparseStats, bool) {
	stats := SparseStats{CandidatesPerRow: c.K}
	if c.Rows == 0 {
		return nil, AuctionState{}, stats, true
	}
	if len(prevMapping) != c.Rows || len(prev.Price) != c.Cols {
		return nil, AuctionState{}, stats, false
	}
	if !c.Matchable() {
		return nil, AuctionState{}, stats, false
	}

	a := newAuctionRun(c, workers)
	copy(a.price, prev.Price)
	eps := a.epsFinal()
	if prev.FinalEps > eps {
		eps = prev.FinalEps
	}

	isDirty := make([]bool, a.n)
	for _, p := range dirty {
		if p >= 0 && p < a.n {
			isDirty[p] = true
		}
	}
	for i := range a.personObj {
		a.personObj[i] = -1
	}
	for j := range a.objPerson {
		a.objPerson[j] = -1
	}
	// Seed clean rows, verifying each seed: the previous column must exist,
	// be free, remain among the row's candidates, and still satisfy ε-CS at
	// the warm ε under the seeded prices. Genuine seeds satisfy the ε-CS
	// inequality in exact arithmetic — the previous solve established it at
	// assignment time and prices only rose afterwards, which only widens the
	// row's margin — but a winning row's margin sits exactly at the boundary,
	// so the recomputation here rounds differently by a few ulps. The slack
	// term absorbs that (it scales with the value spread like the rounding
	// error does, and stays orders of magnitude below ε), so the check rejects
	// nothing but genuinely stale seeds while loosening the optimality bound
	// by at most Cols·slack, noise against Cols·FinalEps.
	slack := 1e-12 * (a.spread + 1)
	for p := 0; p < a.n; p++ {
		if isDirty[p] {
			continue
		}
		j := prevMapping[p]
		if j < 0 || j >= a.m || a.objPerson[j] != -1 {
			continue
		}
		cols, vals := c.Row(p)
		member := false
		netJ := 0.0
		best := math.Inf(-1)
		for ci, cj := range cols {
			net := vals[ci] - a.price[cj]
			if net > best {
				best = net
			}
			if cj == j {
				member = true
				netJ = net
			}
		}
		if !member || netJ < best-eps-slack {
			continue
		}
		a.personObj[p] = j
		a.objPerson[j] = p
	}
	// Virtual padding rows (m > n) are interchangeable all-zero rows; the
	// previous solve left their columns priced within prev.FinalEps of the
	// global minimum, so any free column still that cheap can seat one while
	// preserving ε-CS. With an empty dirty set the free columns are exactly
	// the previously virtual-held ones, so every virtual row seats and the
	// solve stays zero-round.
	if a.m > a.n {
		minPrice := a.price[0]
		for _, pr := range a.price[1:] {
			if pr < minPrice {
				minPrice = pr
			}
		}
		v := a.n
		for j := 0; j < a.m && v < a.m; j++ {
			if a.objPerson[j] == -1 && a.price[j] <= minPrice+eps {
				a.personObj[v] = j
				a.objPerson[j] = v
				v++
			}
		}
	}
	a.unassigned = a.unassigned[:0]
	for p := 0; p < a.m; p++ {
		if a.personObj[p] == -1 {
			a.unassigned = append(a.unassigned, p)
			if p < a.n {
				stats.RebidRows++
			}
		}
	}

	stats.Phases = 1
	stats.FinalEps = eps
	rounds, ok := a.runPhase(eps)
	stats.Rounds = rounds
	if !ok {
		return nil, AuctionState{}, stats, false
	}
	mapping := make([]int, a.n)
	copy(mapping, a.personObj[:a.n])
	return mapping, AuctionState{Price: a.price, FinalEps: eps, Spread: a.spread}, stats, true
}

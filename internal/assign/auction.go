package assign

import (
	"fmt"
	"math"

	"graphalign/internal/parallel"
)

// SparseStats reports what the sparse pipeline did, for observability and
// for the optimality-tolerance contract of the property tests.
type SparseStats struct {
	// CandidatesPerRow is the effective per-row candidate count K.
	CandidatesPerRow int
	// Rounds is the number of synchronous auction bidding rounds across all
	// ε phases (zero for the non-auction methods and on fallback).
	Rounds int
	// Phases is the number of ε-scaling phases run.
	Phases int
	// FinalEps is the ε of the last auction phase; the auction total is
	// within Cols*FinalEps of the optimum over the candidate graph.
	FinalEps float64
	// FellBack reports that the candidate graph left rows unmatchable and
	// the solve was redone by dense JV over the materialized matrix.
	FellBack bool
	// RebidRows is the number of real rows that entered a warm solve
	// unassigned: the caller's dirty rows plus any seeds rejected by the
	// feasibility repair pass. Zero for cold solves.
	RebidRows int
}

// SolveSparse runs the candidate-set counterpart of one of the paper's four
// methods: NN and SG over the candidates, and the ε-scaling auction (with a
// dense-JV fallback) for both exact methods, MWM and JV. s is the similarity c was selected from; its Similarity is only invoked
// on the auction's unmatchable-fallback path (s may be nil when the caller
// can guarantee matchability; the fallback then returns an error). workers
// bounds the auction's parallel bidding fan-out (0 = one per CPU); the
// returned mapping is identical for any worker count. The NN variant is
// restricted to one-to-one, as the paper requires of every method.
func SolveSparse(method Method, c *Candidates, s Scorer, workers int) ([]int, SparseStats, error) {
	if c.Rows > c.Cols {
		return nil, SparseStats{}, fmt.Errorf("assign: source larger than target (%d > %d)", c.Rows, c.Cols)
	}
	stats := SparseStats{CandidatesPerRow: c.K}
	switch method {
	case NearestNeighbor:
		return EnforceOneToOneSparse(c, SolveNNSparse(c)), stats, nil
	case SortGreedy:
		return SolveGreedySparse(c), stats, nil
	case Hungarian, JonkerVolgenant:
		// The auction below.
	default:
		return nil, stats, fmt.Errorf("assign: unknown method %q", method)
	}
	// A row left without candidates by NaN pruning can never be
	// matched: Hopcroft–Karp would report the graph unmatchable and the
	// solve would silently land on the dense fallback, masking the defect.
	// Surface it as a typed error instead (NN/SG above have documented
	// free-column fallbacks and stay permissive).
	if c.Len != nil {
		for i, l := range c.Len {
			if l == 0 {
				return nil, stats, &StarvedRowError{Row: i}
			}
		}
	}
	mapping, _, st, ok := SolveAuction(c, workers)
	st.CandidatesPerRow = c.K
	if ok {
		return mapping, st, nil
	}
	st.FellBack = true
	if s == nil {
		return nil, st, fmt.Errorf("assign: candidate graph unmatchable and no dense fallback")
	}
	return SolveJV(s.Similarity()), st, nil
}

// auctionMaxRounds bounds the bidding rounds of one ε phase. Theory bounds
// the bids per object per phase by Δ/ε + persons, so with the ε-scaling
// schedule below (Δ/ε <= 4 after the first phase) legitimate phases stay
// far under the cap; it exists purely as a termination backstop — a tripped
// cap reports ok=false and the caller falls back to dense JV.
func auctionMaxRounds(persons, objects int) int {
	return 64 * (persons + objects + 16)
}

// AuctionState is the reusable outcome of an auction solve: the final column
// price vector plus the schedule facts a later solve over a slightly edited
// candidate set needs to warm-start (see SolveAuctionWarm). The price vector
// is owned by the state — solvers copy it rather than aliasing caller memory.
type AuctionState struct {
	// Price is the final column price vector (length Cols).
	Price []float64
	// FinalEps is the ε the returned assignment satisfies ε-complementary
	// slackness for; the total is within Cols*FinalEps of the candidate-graph
	// optimum.
	FinalEps float64
	// Spread is the candidate value spread the ε schedule was derived from.
	Spread float64
}

// SolveAuction solves the maximum-similarity assignment over a candidate set
// with the forward auction algorithm and ε-scaling (Bertsekas). Rows bid for
// their best-value candidate at a premium of (best − second-best + ε) over
// its price; ε starts at a quarter of the candidate value spread and shrinks
// geometrically, each phase re-running the auction from the previous phase's
// prices. The final total similarity is within Cols*FinalEps of the optimum
// restricted to the candidate graph (ε-complementary slackness).
//
// Rectangular problems (Rows < Cols) are padded with virtual rows holding
// zero value for every column, exactly like SolveJV's padding, so the
// symmetric auction applies unchanged.
//
// Bidding rounds are synchronous (Jacobi): every unassigned row computes its
// bid against the same price vector — fanned out across at most workers
// goroutines — and bids are then resolved sequentially in row order, highest
// bid winning each column with ties to the lowest row. The mapping is
// therefore a pure function of the candidate set: identical across repeated
// runs and across worker counts.
//
// ok is false when the candidate graph cannot match every row (detected by
// Hopcroft–Karp up front, plus a round-cap backstop); callers should fall
// back to a dense solver (see SolveSparse). The returned AuctionState lets a
// later solve over an edited candidate set warm-start (SolveAuctionWarm).
func SolveAuction(c *Candidates, workers int) ([]int, AuctionState, SparseStats, bool) {
	var stats SparseStats
	if c.Rows == 0 {
		return nil, AuctionState{}, stats, true
	}
	if !c.Matchable() {
		return nil, AuctionState{}, stats, false
	}
	a := newAuctionRun(c, workers)
	epsFinal := a.epsFinal()
	eps := a.spread / 4
	if eps < epsFinal {
		eps = epsFinal
	}
	for {
		stats.Phases++
		stats.FinalEps = eps
		// Each phase restarts the assignment from the current prices, which
		// satisfy ε-CS for the previous (larger) ε.
		a.resetAssignment()
		rounds, ok := a.runPhase(eps)
		stats.Rounds += rounds
		if !ok {
			return nil, AuctionState{}, stats, false
		}
		if eps <= epsFinal {
			break
		}
		eps /= 4
		if eps < epsFinal {
			eps = epsFinal
		}
	}
	mapping := make([]int, a.n)
	copy(mapping, a.personObj[:a.n])
	return mapping, AuctionState{Price: a.price, FinalEps: stats.FinalEps, Spread: a.spread}, stats, true
}

// auctionRun holds the mutable state of one auction solve, shared by the cold
// ε-scaling loop (SolveAuction) and the warm single-phase path
// (SolveAuctionWarm). Persons are the rows padded square with zero-value
// virtual rows, exactly like SolveJV's padding.
type auctionRun struct {
	c          *Candidates
	n, m       int // real rows, columns (persons run 0..m-1)
	spread     float64
	price      []float64
	personObj  []int // person -> column, -1 unassigned
	objPerson  []int // column -> person, -1 free
	unassigned []int // unassigned persons, ascending
	bidObj     []int
	bidVal     []float64
	roundStamp []int // per-round winning bid per column, stamp-invalidated
	round      int
	workers    int
	parWorkers int
}

func newAuctionRun(c *Candidates, workers int) *auctionRun {
	n, m := c.Rows, c.Cols
	// Value spread drives the ε schedule. Virtual padding rows hold value 0,
	// so the spread must cover 0 when padding is present. Rows are scanned
	// through Row so pruned-short rows (Candidates.Len) contribute only
	// their live candidates, not the flat-array padding.
	minV, maxV := math.Inf(1), math.Inf(-1)
	seen := 0
	for i := 0; i < n; i++ {
		_, vals := c.Row(i)
		seen += len(vals)
		for _, v := range vals {
			if v < minV {
				minV = v
			}
			if v > maxV {
				maxV = v
			}
		}
	}
	if m > n || seen == 0 {
		if minV > 0 {
			minV = 0
		}
		if maxV < 0 {
			maxV = 0
		}
	}
	a := &auctionRun{
		c:          c,
		n:          n,
		m:          m,
		spread:     maxV - minV,
		price:      make([]float64, m),
		personObj:  make([]int, m),
		objPerson:  make([]int, m),
		unassigned: make([]int, 0, m),
		bidObj:     make([]int, m),
		bidVal:     make([]float64, m),
		roundStamp: make([]int, m),
		workers:    workers,
		parWorkers: parallel.Workers(workers),
	}
	for j := range a.roundStamp {
		a.roundStamp[j] = -1
	}
	return a
}

func (a *auctionRun) epsFinal() float64 {
	epsFinal := a.spread / (1e6 * float64(a.m+1))
	if epsFinal <= 0 {
		epsFinal = 1e-12 // all-equal values: one phase, any perfect matching is optimal
	}
	return epsFinal
}

func (a *auctionRun) resetAssignment() {
	for i := range a.personObj {
		a.personObj[i] = -1
	}
	for j := range a.objPerson {
		a.objPerson[j] = -1
	}
	a.unassigned = a.unassigned[:0]
	for p := 0; p < a.m; p++ {
		a.unassigned = append(a.unassigned, p)
	}
}

// bid computes person p's favored column and bid price under the current
// prices. Persons >= n are virtual padding with value 0 on every column.
// With a single viable candidate, second stays -Inf; the bid premium is
// then capped at one value spread rather than +Inf. An infinite price
// would poison later ε phases: the phase restart keeps prices, the row's
// only net value becomes -Inf, and the row can never bid again — the
// phase then spins to the round cap and falls back. A spread-sized
// overbid still dominates every competing finite net while keeping the
// next phase solvable.
func (a *auctionRun) bid(p int, eps float64) (int, float64) {
	best, second := math.Inf(-1), math.Inf(-1)
	bestJ := -1
	if p < a.n {
		cols, vals := a.c.Row(p)
		for ci, j := range cols {
			net := vals[ci] - a.price[j]
			if net > best {
				second = best
				best, bestJ = net, j
			} else if net > second {
				second = net
			}
		}
	} else {
		for j := 0; j < a.m; j++ {
			net := -a.price[j]
			if net > best {
				second = best
				best, bestJ = net, j
			} else if net > second {
				second = net
			}
		}
	}
	if bestJ == -1 {
		return -1, 0
	}
	if math.IsInf(second, -1) {
		second = best - a.spread
	}
	return bestJ, a.price[bestJ] + (best - second) + eps
}

// runPhase runs synchronous bidding rounds at a fixed ε until every person is
// assigned, starting from whatever partial assignment the run currently holds
// (a.unassigned must list the unassigned persons in ascending order). It
// returns the number of rounds run; ok is false when the round-cap backstop
// trips.
func (a *auctionRun) runPhase(eps float64) (int, bool) {
	maxRounds := auctionMaxRounds(a.m, a.m)
	rounds := 0
	for phaseRound := 0; len(a.unassigned) > 0; phaseRound++ {
		if phaseRound > maxRounds {
			return rounds, false
		}
		rounds++
		a.round++
		// Bidding: pure per-person scans against the shared price vector.
		computeBids := func(lo, hi int) {
			for idx := lo; idx < hi; idx++ {
				p := a.unassigned[idx]
				a.bidObj[p], a.bidVal[p] = a.bid(p, eps)
			}
		}
		if len(a.unassigned)*(a.c.K+1) >= candidateBudget && a.parWorkers > 1 {
			parallel.Blocks(a.workers, len(a.unassigned), computeBids)
		} else {
			computeBids(0, len(a.unassigned))
		}
		// Resolution: find each column's winning bid. Bidders are scanned
		// in ascending person order and only a strictly higher bid
		// displaces the provisional winner, so ties go to the lowest
		// person and the outcome never depends on goroutine scheduling.
		// Every bid exceeds the column's pre-round price by >= ε by
		// construction, so all bids are acceptable.
		for _, p := range a.unassigned {
			j := a.bidObj[p]
			if j < 0 {
				continue
			}
			if a.roundStamp[j] != a.round {
				a.roundStamp[j] = a.round
				if prev := a.objPerson[j]; prev != -1 {
					a.personObj[prev] = -1
				}
			} else {
				prev := a.objPerson[j]
				if a.bidVal[p] <= a.bidVal[prev] {
					continue
				}
				a.personObj[prev] = -1
			}
			a.objPerson[j] = p
			a.personObj[p] = j
			a.price[j] = a.bidVal[p]
		}
		// Rebuild the unassigned list in ascending person order.
		a.unassigned = a.unassigned[:0]
		for p := 0; p < a.m; p++ {
			if a.personObj[p] == -1 {
				a.unassigned = append(a.unassigned, p)
			}
		}
	}
	return rounds, true
}

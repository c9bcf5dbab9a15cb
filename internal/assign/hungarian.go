package assign

import (
	"math"

	"graphalign/internal/matrix"
)

// SolveHungarian solves the maximum-similarity linear assignment problem
// exactly with the O(n^3) Hungarian algorithm (Kuhn–Munkres in the
// potentials formulation). It accepts rectangular matrices with
// Rows <= Cols and returns mapping[i] = assigned column for every row.
//
// This is the paper's "MWM" solver (the Hungarian variant used by LREA). A
// NaN entry ranks below every finite one (see nanFloored).
func SolveHungarian(sim *matrix.Dense) []int {
	n, m := sim.Rows, sim.Cols
	if n == 0 {
		return nil
	}
	sim = nanFloored(sim)
	// Internally we minimize cost = -similarity with the classic potentials
	// algorithm (1-indexed arrays as in the standard formulation).
	inf := math.Inf(1)
	u := make([]float64, n+1)
	v := make([]float64, m+1)
	p := make([]int, m+1) // p[j] = row matched to column j (0 = none)
	way := make([]int, m+1)
	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		minv := make([]float64, m+1)
		used := make([]bool, m+1)
		for j := range minv {
			minv[j] = inf
		}
		for {
			used[j0] = true
			i0 := p[j0]
			delta := inf
			j1 := 0
			for j := 1; j <= m; j++ {
				if used[j] {
					continue
				}
				cur := -sim.At(i0-1, j-1) - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= m; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}
	mapping := make([]int, n)
	for j := 1; j <= m; j++ {
		if p[j] > 0 {
			mapping[p[j]-1] = j - 1
		}
	}
	return mapping
}

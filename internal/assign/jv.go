package assign

import (
	"math"

	"graphalign/internal/matrix"
)

// SolveJV solves the maximum-similarity linear assignment problem with the
// Jonker–Volgenant algorithm: a column-reduction / augmenting-row-reduction
// preprocessing phase followed by shortest augmenting paths for the rows
// left unassigned. For square dense problems it visits far fewer augmenting
// paths than the plain Hungarian algorithm, which is why the paper adopts it
// as the common assignment stage.
//
// The matrix may be rectangular with Rows <= Cols; internally it is padded
// to square with zero similarity. mapping[i] is the column assigned to row i.
// A NaN entry ranks below every finite one (see nanFloored).
func SolveJV(sim *matrix.Dense) []int {
	nRows, nCols := sim.Rows, sim.Cols
	if nRows == 0 {
		return nil
	}
	n := nCols // pad rows up to square
	// cost[i][j] = -sim for real rows; 0 for padding rows.
	floored := nanFloored(sim)
	cost := func(i, j int) float64 {
		if i < nRows {
			return -floored.At(i, j)
		}
		return 0
	}

	inf := math.Inf(1)
	rowsol := make([]int, n) // column assigned to row
	colsol := make([]int, n) // row assigned to column
	u := make([]float64, n)  // row potentials (dual)
	v := make([]float64, n)  // column potentials (dual)
	for i := range rowsol {
		rowsol[i] = -1
		colsol[i] = -1
	}

	// --- Column reduction ---
	matches := 0
	for j := n - 1; j >= 0; j-- {
		minVal := cost(0, j)
		iMin := 0
		for i := 1; i < n; i++ {
			if c := cost(i, j); c < minVal {
				minVal = c
				iMin = i
			}
		}
		v[j] = minVal
		if rowsol[iMin] == -1 {
			rowsol[iMin] = j
			colsol[j] = iMin
			matches++
		}
	}

	// Collect unassigned rows.
	var free []int
	for i := 0; i < n; i++ {
		if rowsol[i] == -1 {
			free = append(free, i)
		}
	}

	// --- Augmenting row reduction (two passes, as in the original) ---
	for pass := 0; pass < 2; pass++ {
		var nextFree []int
		for _, i := range free {
			// Find the two smallest reduced costs in row i.
			min1, min2 := inf, inf
			j1, j2 := -1, -1
			for j := 0; j < n; j++ {
				red := cost(i, j) - v[j]
				if red < min1 {
					min2, j2 = min1, j1
					min1, j1 = red, j
				} else if red < min2 {
					min2, j2 = red, j
				}
			}
			u[i] = min2
			if min1 < min2 {
				v[j1] += min1 - min2
			} else if j2 >= 0 {
				j1 = j2
			}
			if prev := colsol[j1]; prev >= 0 {
				if min1 < min2 {
					// Steal the column; previous owner retries.
					rowsol[prev] = -1
					nextFree = append(nextFree, prev)
					rowsol[i] = j1
					colsol[j1] = i
				} else {
					nextFree = append(nextFree, i)
				}
			} else {
				rowsol[i] = j1
				colsol[j1] = i
			}
		}
		free = nextFree
		if len(free) == 0 {
			break
		}
	}

	// --- Shortest augmenting paths for remaining free rows ---
	d := make([]float64, n)
	pred := make([]int, n)
	colList := make([]int, n)
	for _, freeRow := range free {
		for j := 0; j < n; j++ {
			d[j] = cost(freeRow, j) - v[j]
			pred[j] = freeRow
			colList[j] = j
		}
		low, up := 0, 0 // columns in colList[:low] are scanned, [low:up] to scan with min d
		var endOfPath = -1
		minD := 0.0
		for endOfPath == -1 {
			if low == up {
				// Find columns with the minimum d among unscanned.
				minD = d[colList[up]]
				for k := up; k < n; k++ {
					j := colList[k]
					if d[j] <= minD {
						if d[j] < minD {
							minD = d[j]
							up = low
						}
						colList[k], colList[up] = colList[up], colList[k]
						up++
					}
				}
				// Any minimum column unassigned? Then we can stop.
				for k := low; k < up; k++ {
					j := colList[k]
					if colsol[j] == -1 {
						endOfPath = j
						break
					}
				}
			}
			if endOfPath != -1 {
				break
			}
			// Scan one column from the minimum set.
			j1 := colList[low]
			low++
			i := colsol[j1]
			h := cost(i, j1) - v[j1] - minD
			for k := up; k < n; k++ {
				j := colList[k]
				nd := cost(i, j) - v[j] - h
				if nd < d[j] {
					d[j] = nd
					pred[j] = i
					if nd == minD {
						if colsol[j] == -1 {
							endOfPath = j
							break
						}
						colList[k], colList[up] = colList[up], colList[k]
						up++
					}
				}
			}
		}
		// Update column potentials for scanned columns.
		for k := 0; k < low; k++ {
			j := colList[k]
			v[j] += d[j] - minD
		}
		// Augment along the alternating path.
		for {
			i := pred[endOfPath]
			colsol[endOfPath] = i
			endOfPath, rowsol[i] = rowsol[i], endOfPath
			if i == freeRow {
				break
			}
		}
	}

	mapping := make([]int, nRows)
	copy(mapping, rowsol[:nRows])
	return mapping
}

// nanFloored returns sim with every NaN entry replaced by one finite value
// below every finite entry, so the exact solvers rank NaN below every number
// and still return a one-to-one mapping: a raw NaN compares false against
// every bound, which leaves a JV row without a minimum column and keeps the
// Hungarian search from ever closing its tree. A NaN-free sim is returned as
// is, so its solve is unchanged bit for bit.
func nanFloored(sim *matrix.Dense) *matrix.Dense {
	for _, v := range sim.Data {
		if v != v {
			return floorNaN(sim)
		}
	}
	return sim
}

// floorNaN is nanFloored on a sim that holds a NaN: a copy with each NaN
// set to lo-1-(hi-lo) over the finite entries' range [lo, hi] (0 when no
// entry is finite).
func floorNaN(sim *matrix.Dense) *matrix.Dense {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range sim.Data {
		if v == v && !math.IsInf(v, 0) {
			lo, hi = min(lo, v), max(hi, v)
		}
	}
	floor := 0.0
	if lo <= hi {
		floor = lo - 1 - (hi - lo)
	}
	out := sim.Clone()
	for i, v := range out.Data {
		if v != v {
			out.Data[i] = floor
		}
	}
	return out
}

package kdtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func randomPoints(n, d int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, d)
		for j := range p {
			p[j] = rng.NormFloat64()
		}
		pts[i] = p
	}
	return pts
}

func bruteNearestK(pts [][]float64, q []float64, k int) ([]int, []float64) {
	type pd struct {
		id int
		d  float64
	}
	all := make([]pd, len(pts))
	for i, p := range pts {
		var s float64
		for j := range p {
			d := p[j] - q[j]
			s += d * d
		}
		all[i] = pd{i, s}
	}
	sort.Slice(all, func(a, b int) bool { return all[a].d < all[b].d })
	if k > len(all) {
		k = len(all)
	}
	ids := make([]int, k)
	ds := make([]float64, k)
	for i := 0; i < k; i++ {
		ids[i] = all[i].id
		ds[i] = all[i].d
	}
	return ids, ds
}

func TestNearestKnown(t *testing.T) {
	pts := [][]float64{{0, 0}, {1, 0}, {5, 5}}
	tr := Build(pts)
	ids, ds := tr.NearestKInto([]float64{0.9, 0.1}, 1, NewScratch())
	id, d := ids[0], ds[0]
	if id != 1 {
		t.Fatalf("nearest = %d, want 1", id)
	}
	if math.Abs(d-(0.01+0.01)) > 1e-12 {
		t.Fatalf("dist = %v", d)
	}
}

func TestEmptyTree(t *testing.T) {
	tr := Build(nil)
	if ids, _ := tr.NearestKInto([]float64{1}, 3, NewScratch()); ids != nil {
		t.Error("empty tree NearestKInto should return nil")
	}
}

func TestPropertyNearestKMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		pts := randomPoints(60, 3, seed)
		tr := Build(pts)
		rng := rand.New(rand.NewSource(seed + 999))
		q := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		for _, k := range []int{1, 5, 60, 100} {
			gotIDs, gotDs := tr.NearestKInto(q, k, NewScratch())
			wantIDs, wantDs := bruteNearestK(pts, q, k)
			if len(gotIDs) != len(wantIDs) {
				return false
			}
			for i := range gotDs {
				// Compare distances (ids can tie).
				if math.Abs(gotDs[i]-wantDs[i]) > 1e-12 {
					return false
				}
			}
			_ = wantIDs
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestNearestKOrdering(t *testing.T) {
	pts := randomPoints(40, 2, 5)
	tr := Build(pts)
	_, ds := tr.NearestKInto([]float64{0, 0}, 10, NewScratch())
	if !sort.Float64sAreSorted(ds) {
		t.Error("NearestKInto distances must be ascending")
	}
}

// bruteNearestKTied is bruteNearestK with the full tie contract the sparse
// candidate pipeline relies on: ascending distance, then ascending id.
func bruteNearestKTied(pts [][]float64, q []float64, k int) []int {
	type pd struct {
		id int
		d  float64
	}
	all := make([]pd, len(pts))
	for i, p := range pts {
		var s float64
		for j := range p {
			d := p[j] - q[j]
			s += d * d
		}
		all[i] = pd{i, s}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].d != all[b].d {
			return all[a].d < all[b].d
		}
		return all[a].id < all[b].id
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = all[i].id
	}
	return out
}

// TestNearestKTieContract pins the documented ordering — (distance asc,
// id asc) — which assign.TopK over an embedding needs to agree bitwise with
// dense top-k selection. Quantized coordinates force many exact distance ties.
func TestNearestKTieContract(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = []float64{float64(rng.Intn(3)), float64(rng.Intn(3))}
		}
		tr := Build(pts)
		q := []float64{float64(rng.Intn(3)), float64(rng.Intn(3))}
		for _, k := range []int{1, 3, n} {
			gotIDs, gotDs := tr.NearestKInto(q, k, NewScratch())
			wantIDs := bruteNearestKTied(pts, q, k)
			for i := range wantIDs {
				if gotIDs[i] != wantIDs[i] {
					t.Fatalf("trial %d k=%d: ids %v, want %v (dists %v)", trial, k, gotIDs, wantIDs, gotDs)
				}
			}
		}
	}
}

func TestDuplicatePointTies(t *testing.T) {
	// Exact duplicates must surface in ascending id order.
	pts := [][]float64{{2, 2}, {1, 1}, {1, 1}, {1, 1}, {2, 2}}
	tr := Build(pts)
	ids, ds := tr.NearestKInto([]float64{1, 1}, 5, NewScratch())
	want := []int{1, 2, 3, 0, 4}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("ids = %v (ds %v), want %v", ids, ds, want)
		}
	}
}

func TestDuplicatePoints(t *testing.T) {
	pts := [][]float64{{1, 1}, {1, 1}, {2, 2}}
	tr := Build(pts)
	ids, ds := tr.NearestKInto([]float64{1, 1}, 2, NewScratch())
	if len(ids) != 2 || ds[0] != 0 || ds[1] != 0 {
		t.Errorf("duplicates: ids=%v ds=%v", ids, ds)
	}
}

// TestAdversarialDuplicateCoordinates stresses the tie contract where it is
// hardest to honor: runs of exact duplicates longer than a leaf bucket (so
// ties straddle leaf boundaries and arrive out of id order), interleaved with
// near-misses that tie on the split axis only. Every query must still return
// (distance asc, id asc) exactly.
func TestAdversarialDuplicateCoordinates(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// 4*leafSize points drawn from just 4 distinct locations: each location's
	// duplicate run exceeds leafSize, and ids are assigned in shuffled order
	// so ascending-id output cannot fall out of insertion order by accident.
	locs := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	n := 4 * leafSize
	pts := make([][]float64, n)
	order := rng.Perm(n)
	for i, o := range order {
		pts[o] = locs[i%len(locs)]
	}
	tr := Build(pts)
	queries := append([][]float64{{0.5, 0.5}, {0, 0}, {1, 1}, {0, 0.5}}, locs...)
	for qi, q := range queries {
		for _, k := range []int{1, 3, leafSize, leafSize + 5, n} {
			gotIDs, gotDs := tr.NearestKInto(q, k, NewScratch())
			wantIDs := bruteNearestKTied(pts, q, k)
			if len(gotIDs) != len(wantIDs) {
				t.Fatalf("query %d k=%d: got %d results, want %d", qi, k, len(gotIDs), len(wantIDs))
			}
			for i := range wantIDs {
				if gotIDs[i] != wantIDs[i] {
					t.Fatalf("query %d k=%d pos %d: ids %v, want %v (dists %v)",
						qi, k, i, gotIDs, wantIDs, gotDs)
				}
			}
		}
	}
}

// TestScratchReuseMatchesFresh pins the scratch-reuse contract: a single
// Scratch carried across a mixed query sequence (varying k, duplicate-heavy
// and random points) returns exactly what fresh per-call state returns —
// no ordering drift from leftover heap or stack contents.
func TestScratchReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	pts := randomPoints(150, 3, 13)
	for i := 0; i < 30; i++ { // inject exact duplicates
		a, b := rng.Intn(len(pts)), rng.Intn(len(pts))
		pts[a] = pts[b]
	}
	tr := Build(pts)
	s := NewScratch()
	for trial := 0; trial < 200; trial++ {
		q := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		if trial%3 == 0 { // exact hits force zero-distance ties
			q = pts[rng.Intn(len(pts))]
		}
		k := 1 + rng.Intn(20)
		gotIDs, gotDs := tr.NearestKInto(q, k, s)
		wantIDs, wantDs := tr.NearestKInto(q, k, NewScratch())
		if len(gotIDs) != len(wantIDs) {
			t.Fatalf("trial %d: reused scratch returned %d results, fresh %d", trial, len(gotIDs), len(wantIDs))
		}
		for i := range wantIDs {
			if gotIDs[i] != wantIDs[i] || gotDs[i] != wantDs[i] {
				t.Fatalf("trial %d pos %d: reused (%d,%v) vs fresh (%d,%v)",
					trial, i, gotIDs[i], gotDs[i], wantIDs[i], wantDs[i])
			}
		}
	}
}

// TestNearestKIntoAllocFree pins the steady-state zero-allocation contract
// of the scratch path.
func TestNearestKIntoAllocFree(t *testing.T) {
	pts := randomPoints(500, 4, 21)
	tr := Build(pts)
	s := NewScratch()
	q := []float64{0.1, -0.2, 0.3, -0.4}
	tr.NearestKInto(q, 16, s) // warm the scratch
	allocs := testing.AllocsPerRun(100, func() {
		tr.NearestKInto(q, 16, s)
	})
	if allocs != 0 {
		t.Errorf("NearestKInto with warm scratch: %v allocs/op, want 0", allocs)
	}
}

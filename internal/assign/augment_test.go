package assign

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"graphalign/internal/matrix"
)

func randDense(n, d int, rng *rand.Rand) *matrix.Dense {
	m := matrix.NewDense(n, d)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// degenerateEmbedding builds an embedding whose rows cluster into a few
// nearly identical groups — the low-rank failure mode that makes top-k
// candidate graphs violate Hall's condition (every row of a cluster shares
// the same candidate list).
func degenerateEmbedding(n, m, d, clusters int, rng *rand.Rand) *Embedding {
	e := &Embedding{
		Src:          randDense(n, d, rng),
		Dst:          randDense(m, d, rng),
		SimFromDist2: func(d2 float64) float64 { return 1 / (1 + d2) },
	}
	centers := randDense(clusters, d, rng)
	for i := 0; i < n; i++ {
		row := e.Src.Row(i)
		c := centers.Row(i % clusters)
		for k := range row {
			row[k] = c[k] + 1e-6*rng.NormFloat64()
		}
	}
	return e
}

// augmentInvariants checks the repair contract: the result is matchable, the
// base entries are untouched, each added entry is a real scored pair absent
// from the base list, and every row stays sorted by (value desc, col asc).
func augmentInvariants(t *testing.T, base, aug *Candidates, augCols []int, score func(i, j int) float64) {
	t.Helper()
	if !aug.Matchable() {
		t.Fatal("augmented candidate set is not matchable")
	}
	if aug == base {
		return // already matchable, returned unchanged
	}
	if aug.K != base.K+1 {
		t.Fatalf("augmented stride %d, want %d", aug.K, base.K+1)
	}
	seen := make(map[int]bool)
	for i := 0; i < base.Rows; i++ {
		bc, bv := base.Row(i)
		ac, av := aug.Row(i)
		j := augCols[i]
		if j < 0 {
			if !reflect.DeepEqual(append([]int(nil), bc...), append([]int(nil), ac...)) ||
				!reflect.DeepEqual(append([]float64(nil), bv...), append([]float64(nil), av...)) {
				t.Fatalf("row %d: unaugmented row differs from base", i)
			}
			continue
		}
		if seen[j] {
			t.Fatalf("row %d: repair column %d assigned twice", i, j)
		}
		seen[j] = true
		if len(ac) != len(bc)+1 {
			t.Fatalf("row %d: augmented length %d, want %d", i, len(ac), len(bc)+1)
		}
		for _, cj := range bc {
			if cj == j {
				t.Fatalf("row %d: repair column %d already in base list", i, j)
			}
		}
		found := false
		for p, cj := range ac {
			if cj == j {
				found = true
				want := score(i, j)
				if math.IsNaN(want) {
					want = 0
				}
				if av[p] != want {
					t.Fatalf("row %d: repair value %g, want %g", i, av[p], want)
				}
			}
		}
		if !found {
			t.Fatalf("row %d: repair column %d absent from augmented row", i, j)
		}
		for p := 1; p < len(av); p++ {
			if av[p] > av[p-1] || (av[p] == av[p-1] && ac[p] < ac[p-1]) {
				t.Fatalf("row %d: augmented row out of order at %d", i, p)
			}
		}
	}
}

func TestAugmentEmbeddingRepairsDegenerateGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	e := degenerateEmbedding(60, 60, 6, 4, rng)
	base := TopK(e, 5, 1)
	if base.Matchable() {
		t.Skip("degenerate construction unexpectedly matchable")
	}
	aug, augCols, match := Augment(e2c(base), e, nil, nil)
	if augCols == nil {
		t.Fatal("unmatchable base returned without repair columns")
	}
	if len(match) != base.Rows {
		t.Fatalf("match length %d, want %d", len(match), base.Rows)
	}
	augmentInvariants(t, base, aug, augCols, e.Score)
}

// e2c is the identity; it exists so the test reads as passing the base set.
func e2c(c *Candidates) *Candidates { return c }

func TestAugmentMatchableIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	e := randEmbedding(40, 50, 8, rng)
	base := TopK(e, 12, 1)
	if !base.Matchable() {
		t.Skip("random embedding unexpectedly unmatchable")
	}
	aug, augCols, match := Augment(base, e, nil, nil)
	if aug != base || augCols != nil {
		t.Fatal("matchable base was not returned unchanged")
	}
	if len(match) != base.Rows {
		t.Fatalf("match length %d, want %d", len(match), base.Rows)
	}
}

// Identical inputs must reproduce the augmented set bitwise — the property
// the incremental session's empty-delta contract rests on — and feeding the
// returned matching and repair columns back as seeds must change nothing.
func TestAugmentDeterministicAndSticky(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	e := degenerateEmbedding(50, 55, 6, 3, rng)
	base := TopK(e, 5, 1)
	a1, cols1, match1 := Augment(base, e, nil, nil)
	a2, cols2, _ := Augment(base, e, nil, nil)
	if !reflect.DeepEqual(a1, a2) || !reflect.DeepEqual(cols1, cols2) {
		t.Fatal("repeated repair of identical inputs differs")
	}
	a3, cols3, _ := Augment(base, e, match1, cols1)
	if !reflect.DeepEqual(a1, a3) || !reflect.DeepEqual(cols1, cols3) {
		t.Fatal("seeded repair of identical inputs differs from unseeded")
	}
}

func TestAugmentFactorNaNClamped(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := randFactors(20, 24, 3, rng)
	// Collapse most rows' coefficients so their top-k lists coincide.
	for t2 := range f.Us {
		for i := 4; i < 20; i++ {
			f.Us[t2][i] = f.Us[t2][0]
		}
	}
	base := TopK(f, 3, 1)
	if base.Matchable() {
		t.Skip("collapsed factors unexpectedly matchable")
	}
	aug, augCols, _ := Augment(base, f, nil, nil)
	augmentInvariants(t, base, aug, augCols, f.Score)
	for i, j := range augCols {
		if j < 0 {
			continue
		}
		cols, vals := aug.Row(i)
		for p, cj := range cols {
			if cj == j && math.IsNaN(vals[p]) {
				t.Fatalf("row %d: NaN repair value survived", i)
			}
		}
	}
}

// The auction must accept any repaired graph the sparse pipeline would have
// refused — the property the incremental session's warm path depends on.
func TestAugmentedGraphSolvesWithoutFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	e := degenerateEmbedding(80, 80, 6, 5, rng)
	base := TopK(e, 5, 1)
	if base.Matchable() {
		t.Skip("degenerate construction unexpectedly matchable")
	}
	if _, _, _, ok := SolveAuction(base, 1); ok {
		t.Fatal("unmatchable base unexpectedly solved")
	}
	aug, _, _ := Augment(base, e, nil, nil)
	mapping, _, _, ok := SolveAuction(aug, 1)
	if !ok {
		t.Fatal("auction refused the repaired graph")
	}
	used := make(map[int]bool)
	for i, j := range mapping {
		if j < 0 || j >= aug.Cols || used[j] {
			t.Fatalf("row %d: invalid or duplicate assignment %d", i, j)
		}
		used[j] = true
	}
}

// A seeded maximum matching must preserve still-valid pairs, keeping the
// unmatched set stable when the candidate lists barely change.
func TestAugmentSeedStability(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	e := degenerateEmbedding(60, 66, 6, 4, rng)
	base := TopK(e, 5, 1)
	_, cols1, match1 := Augment(base, e, nil, nil)
	if cols1 == nil {
		t.Skip("degenerate construction unexpectedly matchable")
	}
	// Perturb one row's embedding and rebuild: with seeds, every other row's
	// repair assignment must survive unless its column was stolen.
	q := e.Src.Row(0)
	for k := range q {
		q[k] += 0.5
	}
	next := TopK(e, 5, 1)
	_, cols2, _ := Augment(next, e, match1, cols1)
	moved := 0
	for i := 1; i < base.Rows; i++ {
		c2 := -1
		if cols2 != nil {
			c2 = cols2[i]
		}
		if cols1[i] != c2 {
			moved++
		}
	}
	if moved > base.Rows/4 {
		t.Fatalf("seeded repair reshuffled %d of %d rows after a one-row edit", moved, base.Rows)
	}
}

package algo

import (
	"context"
	"errors"
	"math"
	"testing"

	"graphalign/internal/assign"
	"graphalign/internal/graph"
	"graphalign/internal/matrix"
)

// stubAligner returns a fixed similarity matrix.
type stubAligner struct {
	sim *matrix.Dense
	err error
}

func (s stubAligner) Name() string { return "stub" }
func (s stubAligner) Similarity(_ context.Context, src, dst *graph.Graph) (*matrix.Dense, error) {
	return s.sim, s.err
}
func (s stubAligner) DefaultAssignment() assign.Method { return assign.SortGreedy }

func line(n int) *graph.Graph {
	var edges []graph.Edge
	for i := 0; i < n-1; i++ {
		edges = append(edges, graph.Edge{U: i, V: i + 1})
	}
	return graph.MustNew(n, edges)
}

// align runs a dense plan and returns the mapping.
func align(a Aligner, src, dst *graph.Graph, method assign.Method) ([]int, error) {
	res, err := Run(context.Background(), a, src, dst, Plan{Method: method})
	return res.Mapping, err
}

func TestAlignUsesSimilarity(t *testing.T) {
	sim := matrix.DenseFromRows([][]float64{
		{0, 1, 0},
		{1, 0, 0},
		{0, 0, 1},
	})
	g := line(3)
	mapping, err := align(stubAligner{sim: sim}, g, g, assign.JonkerVolgenant)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 0, 2}
	for i := range want {
		if mapping[i] != want[i] {
			t.Fatalf("mapping = %v, want %v", mapping, want)
		}
	}
}

func TestAlignRejectsLargerSource(t *testing.T) {
	if _, err := align(stubAligner{}, line(4), line(3), assign.SortGreedy); err == nil {
		t.Error("larger source accepted")
	}
}

func TestAlignPropagatesErrors(t *testing.T) {
	wantErr := errors.New("boom")
	_, err := align(stubAligner{err: wantErr}, line(3), line(3), assign.SortGreedy)
	if err == nil || !errors.Is(err, wantErr) {
		t.Errorf("err = %v, want wrapped boom", err)
	}
}

func TestAlignNNIsOneToOne(t *testing.T) {
	// Similarity that sends every row to column 0 under raw NN.
	sim := matrix.DenseFromRows([][]float64{
		{1, 0.1, 0.1},
		{0.9, 0.2, 0.1},
		{0.8, 0.1, 0.3},
	})
	g := line(3)
	mapping, err := align(stubAligner{sim: sim}, g, g, assign.NearestNeighbor)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, v := range mapping {
		if v < 0 || seen[v] {
			t.Fatalf("NN alignment not one-to-one: %v", mapping)
		}
		seen[v] = true
	}
}

// TestRunEmptyMethodIsDefault: an empty Plan.Method runs the aligner's
// DefaultAssignment (SortGreedy for the stub), not some other solver. JV
// picks the other matching on this matrix, so the test tells them apart.
func TestRunEmptyMethodIsDefault(t *testing.T) {
	sim := matrix.DenseFromRows([][]float64{{1, 0.9}, {0.95, 0}})
	g := line(2)
	a := stubAligner{sim: sim}
	for _, tc := range []struct {
		method assign.Method
		want   []int
	}{
		{"", []int{0, 1}},
		{a.DefaultAssignment(), []int{0, 1}},
		{assign.JonkerVolgenant, []int{1, 0}},
	} {
		mapping, err := align(a, g, g, tc.method)
		if err != nil {
			t.Fatal(err)
		}
		if mapping[0] != tc.want[0] || mapping[1] != tc.want[1] {
			t.Errorf("method %q: mapping = %v, want %v", tc.method, mapping, tc.want)
		}
	}
}

func TestDegreePrior(t *testing.T) {
	star := graph.MustNew(4, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}})
	p := DegreePrior(star, star)
	// Center-to-center: identical degree -> 1.
	if p.At(0, 0) != 1 {
		t.Errorf("prior center = %v", p.At(0, 0))
	}
	// Center (deg 3) to leaf (deg 1): 1 - 2/3 = 1/3.
	if math.Abs(p.At(0, 1)-1.0/3) > 1e-12 {
		t.Errorf("prior center-leaf = %v", p.At(0, 1))
	}
	// Isolated pair similarity 1.
	iso := graph.MustNew(1, nil)
	if DegreePrior(iso, iso).At(0, 0) != 1 {
		t.Error("isolated pair prior should be 1")
	}
}

func TestNormalizeSim(t *testing.T) {
	m := matrix.DenseFromRows([][]float64{{2, 2}, {2, 2}})
	NormalizeSim(m)
	if math.Abs(m.Sum()-1) > 1e-12 {
		t.Errorf("sum = %v", m.Sum())
	}
	z := matrix.NewDense(2, 2)
	NormalizeSim(z) // must not divide by zero
	if z.Sum() != 0 {
		t.Error("zero matrix changed")
	}
}

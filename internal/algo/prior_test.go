package algo

import (
	"math"
	"math/rand"
	"testing"

	"graphalign/internal/gen"
	"graphalign/internal/graph"
	"graphalign/internal/matrix"
)

// withIsolated returns g with extra isolated nodes appended.
func withIsolated(t *testing.T, g *graph.Graph, extra int) *graph.Graph {
	t.Helper()
	h, err := graph.New(g.N()+extra, g.Edges())
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func requireSameBits(t *testing.T, what string, got, want *matrix.Dense) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range got.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s[%d] = %v, want %v", what, i, got.Data[i], want.Data[i])
		}
	}
}

// TestDegreeClassPriorMatchesDegreePrior pins the class operator to the
// dense prior bit for bit: its class rows and columns, expanded to every
// member, are DegreePrior and its transpose, and its products are
// matrix.Mul over them. The pairs cover ns != nd and isolated nodes on both
// sides, whose prior entries are exactly 0 and 1.
func TestDegreeClassPriorMatchesDegreePrior(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pl := func(n int) *graph.Graph { return gen.PowerlawCluster(n, 3, 0.3, rng) }
	pairs := map[string][2]*graph.Graph{
		"square":   {pl(80), pl(80)},
		"ns<nd":    {pl(50), pl(90)},
		"isolated": {withIsolated(t, pl(40), 5), withIsolated(t, pl(45), 3)},
		"edgeless": {withIsolated(t, &graph.Graph{}, 4), withIsolated(t, pl(6), 2)},
	}
	for name, p := range pairs {
		src, dst := p[0], p[1]
		op := NewDegreeClassPrior(src, dst)
		dense := DegreePrior(src, dst)
		if m, n := op.Dims(); m != src.N() || n != dst.N() {
			t.Fatalf("%s: Dims() = %d, %d, want %d, %d", name, m, n, src.N(), dst.N())
		}
		requireSameBits(t, name+" rows", expandClasses(op.rows, op.srcClass), dense)
		requireSameBits(t, name+" cols", expandClasses(op.cols, op.dstClass), dense.T())

		x := matrix.NewDense(dst.N(), 5)
		y := matrix.NewDense(src.N(), 5)
		for _, m := range []*matrix.Dense{x, y} {
			for i := range m.Data {
				if i%4 != 0 {
					m.Data[i] = rng.NormFloat64()
				}
			}
		}
		requireSameBits(t, name+" A·X", op.Mul(x), matrix.Mul(dense, x))
		requireSameBits(t, name+" Aᵀ·Y", op.MulT(y), matrix.Mul(dense.T(), y))
	}
}

package cone

import (
	"context"
	"math"
	"testing"

	"graphalign/internal/algo"
	"graphalign/internal/algotest"
	"graphalign/internal/assign"
	"graphalign/internal/matrix"
)

func TestRecoversIsomorphism(t *testing.T) {
	algotest.CheckRecovers(t, New(), 60, 0.85)
}

func TestDeterministic(t *testing.T) {
	algotest.CheckDeterministic(t, func() algo.Aligner { return New() }, 40)
}

func TestShape(t *testing.T) {
	algotest.CheckShape(t, New())
}

func TestDefaultAssignment(t *testing.T) {
	if New().DefaultAssignment() != assign.NearestNeighbor {
		t.Error("CONE extracts alignments by nearest neighbor")
	}
}

func TestEmbedProperties(t *testing.T) {
	p := algotest.Pair(t, 50, 0, 51)
	emb, err := New().EmbedCtx(context.Background(), p.Source)
	if err != nil {
		t.Fatal(err)
	}
	if emb.Rows != p.Source.N() {
		t.Fatal("embedding rows mismatch")
	}
	if emb.Cols > p.Source.N()-1 {
		t.Fatal("dimension not clamped")
	}
	for i := 0; i < emb.Rows; i++ {
		n := matrix.Norm2(emb.Row(i))
		if n > 1e-9 && math.Abs(n-1) > 1e-9 {
			t.Fatalf("embedding row %d not normalized: %v", i, n)
		}
	}
}

func TestDimensionClamp(t *testing.T) {
	c := New() // Dim 512 on a 50-node graph must clamp
	p := algotest.Pair(t, 50, 0, 52)
	emb, err := c.EmbedCtx(context.Background(), p.Source)
	if err != nil {
		t.Fatal(err)
	}
	if emb.Cols != 49 {
		t.Errorf("dim = %d, want 49", emb.Cols)
	}
}

func TestAlignEmbeddingsImprovesOverRaw(t *testing.T) {
	// A rotated copy of an embedding must be re-alignable: build ySrc and a
	// rotated yDst and verify AlignEmbeddingsCtx brings rows back together.
	p := algotest.Pair(t, 40, 0, 53)
	c := New()
	y, err := c.EmbedCtx(context.Background(), p.Source)
	if err != nil {
		t.Fatal(err)
	}
	// Rotate by a random orthogonal matrix (from the polar factor of a
	// random matrix) — simulating the sign/rotation ambiguity.
	d := y.Cols
	r := matrix.NewDense(d, d)
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			r.Set(i, j, float64(((i*31+j*17)%13))-6)
		}
	}
	// Orthogonalize r crudely via Gram-Schmidt on columns.
	for j := 0; j < d; j++ {
		col := make([]float64, d)
		for i := 0; i < d; i++ {
			col[i] = r.At(i, j)
		}
		for k := 0; k < j; k++ {
			prev := make([]float64, d)
			for i := 0; i < d; i++ {
				prev[i] = r.At(i, k)
			}
			dot := matrix.Dot(col, prev)
			matrix.AxpyVec(col, prev, -dot)
		}
		matrix.Normalize(col)
		for i := 0; i < d; i++ {
			r.Set(i, j, col[i])
		}
	}
	yRot := matrix.Mul(y, r)
	// Identity warm start (true correspondence).
	n := y.Rows
	warm := matrix.NewDense(n, n)
	for i := 0; i < n; i++ {
		warm.Set(i, i, 1.0/float64(n))
	}
	rot, _, err := c.AlignEmbeddingsCtx(context.Background(), y, yRot, warm)
	if err != nil {
		t.Fatal(err)
	}
	// After alignment, row i of rot should be closest to row i of yRot.
	correct := 0
	for i := 0; i < n; i++ {
		best, bestD := -1, math.Inf(1)
		for j := 0; j < n; j++ {
			var dd float64
			ri, rj := rot.Row(i), yRot.Row(j)
			for k := range ri {
				df := ri[k] - rj[k]
				dd += df * df
			}
			if dd < bestD {
				bestD = dd
				best = j
			}
		}
		if best == i {
			correct++
		}
	}
	if correct < n*8/10 {
		t.Errorf("alignment recovered %d/%d rows after rotation", correct, n)
	}
}

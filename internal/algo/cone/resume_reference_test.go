package cone

import (
	"context"
	"fmt"
	"math"
	"testing"

	"graphalign/internal/algotest"
	"graphalign/internal/assign"
	"graphalign/internal/linalg"
	"graphalign/internal/matrix"
	"graphalign/internal/ot"
)

// alignEmbeddingsReference is AlignEmbeddingsCtx as it stood before the
// alternation shared one workspace: every round allocates its cost, plan,
// target and rotation.
func alignEmbeddingsReference(ctx context.Context, c *CONE, ySrc, yDst, warmStart *matrix.Dense) (*matrix.Dense, error) {
	n1, n2 := ySrc.Rows, yDst.Rows
	mu := ot.UniformWeights(n1)
	nu := ot.UniformWeights(n2)
	iters := c.Iters
	if iters < 1 {
		iters = 1
	}
	rotated := ySrc.Clone()
	ySrcT := ySrc.T()
	if warmStart != nil {
		target := matrix.Mul(warmStart, yDst).Scale(float64(n1))
		q, err := linalg.PolarOrthogonal(ctx, matrix.Mul(ySrcT, target))
		if err != nil {
			return nil, err
		}
		rotated = matrix.Mul(ySrc, q)
	}
	for it := 0; it < iters; it++ {
		cost := matrix.PairwiseSqDist(rotated, yDst)
		plan, err := ot.SinkhornCtx(ctx, cost, mu, nu, c.SinkhornEps, c.SinkhornIters)
		if err != nil {
			return nil, err
		}
		target := matrix.Mul(plan, yDst).Scale(float64(n1))
		q, err := linalg.PolarOrthogonal(ctx, matrix.Mul(ySrcT, target))
		if err != nil {
			return nil, err
		}
		rotated = matrix.Mul(ySrc, q)
	}
	return rotated, nil
}

// alignFromWarmStartsReference is the warm-start selection as it stood
// before the full alternation resumed from the winning pilot: a 4-round
// pilot per warm start, then the full alternation restarted from the
// winner's warm start.
func alignFromWarmStartsReference(ctx context.Context, c *CONE, ySrc, yDst *matrix.Dense, warms []*matrix.Dense) (*matrix.Dense, error) {
	best := warms[0]
	if len(warms) > 1 {
		bestObj := math.Inf(1)
		pilot := *c
		pilot.Iters = 4
		for _, w := range warms {
			rot, err := alignEmbeddingsReference(ctx, &pilot, ySrc, yDst, w)
			if err != nil {
				return nil, err
			}
			if obj := meanNNDistance(rot, yDst); obj < bestObj {
				bestObj = obj
				best = w
			}
		}
	}
	return alignEmbeddingsReference(ctx, c, ySrc, yDst, best)
}

// TestResumeMatchesRestartReference pins ScorerCtx's embeddings, bit for
// bit, to the pilot-then-restart reference for full alternations shorter
// than, equal to and longer than the 4-round pilot.
func TestResumeMatchesRestartReference(t *testing.T) {
	ctx := context.Background()
	for _, n := range []int{60, 200} {
		p := algotest.Pair(t, n, 0.01, int64(n))
		c := New()
		ySrc, yDst, err := c.subspaceEmbeddings(ctx, p.Source, p.Target)
		if err != nil {
			t.Fatal(err)
		}
		warms, err := c.warmStarts(ctx, p.Source, p.Target)
		if err != nil {
			t.Fatal(err)
		}
		// The second warm start wins on these pairs; reversed, the winner
		// is the first pilot, whose rotation must survive the second
		// pilot's rounds.
		reversed := []*matrix.Dense{warms[1], warms[0]}
		for _, iters := range []int{1, 3, 4, 5, 20} {
			name := fmt.Sprintf("n=%d Iters=%d", n, iters)
			c.Iters = iters
			sc, err := c.ScorerCtx(ctx, p.Source, p.Target)
			if err != nil {
				t.Fatal(err)
			}
			got := sc.(*assign.Embedding)
			want, err := alignFromWarmStartsReference(ctx, c, ySrc, yDst, warms)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, name+" source", got.Src, want)
			sameBits(t, name+" target", got.Dst, yDst)

			rot, err := c.alignFromWarmStarts(ctx, ySrc, yDst, reversed)
			if err != nil {
				t.Fatal(err)
			}
			want, err = alignFromWarmStartsReference(ctx, c, ySrc, yDst, reversed)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, name+" reversed warm starts", rot, want)
		}
	}
}

func sameBits(t *testing.T, what string, got, want *matrix.Dense) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, reference %dx%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range got.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s[%d] = %v, reference %v", what, i, got.Data[i], want.Data[i])
		}
	}
}

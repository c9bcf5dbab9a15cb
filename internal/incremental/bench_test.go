package incremental

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"graphalign/internal/algo"
	"graphalign/internal/algo/nsd"
	"graphalign/internal/algo/regal"
	"graphalign/internal/gen"
	"graphalign/internal/graph"
	"graphalign/internal/noise"
)

// The evolving-graph benchmark pair: steady-state warm Apply versus a cold
// re-alignment (fresh session: embeddings, candidate lists, auction from
// scratch) on the same instance, for the two aligners the incremental mode
// targets. scripts/bench_incremental.sh runs both and derives the speedup
// ratio recorded in BENCH_incremental.json.
//
// INCR_BENCH_N overrides the instance size (default 10000); edit batches are
// 1% of the edge count. The session runs with a relative column tolerance
// and a 2-hop structural dirty scope — the configuration DESIGN.md §16
// recommends for global-basis embeddings, where unbounded refresh would mark
// nearly every candidate list dirty and forfeit the warm path.
func benchN() int {
	if s := os.Getenv("INCR_BENCH_N"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 10000
}

// benchOpts is the tuned steady-state configuration (tolerance sweep at
// n=2000, 1% batches): ColTolerance 0.2 keeps the changed-column set small
// enough that the candidate merge runs in O(delta); DriftThreshold 0.25
// routes the dirty-heavy applies (REGAL: every changed column appears in
// ~n·K/m candidate lists, so dirty ≈ 10× chCols) to the cold auction over
// the augmented candidate set — still ~50× cheaper than the dense-JV
// fallback the auction took before matchability repair — while NSD's small
// dirty sets keep the warm path.
func benchOpts() Options {
	return Options{
		TopK:           10,
		ColTolerance:   0.2,
		DirtyHops:      2,
		DriftThreshold: 0.25,
	}
}

func benchAligner(b *testing.B, name string) algo.Aligner {
	b.Helper()
	switch name {
	case "REGAL":
		r := regal.New()
		// Match the session's column tolerance so signature drift below the
		// staleness bound is absorbed at the refresher, not re-diffed here.
		r.RefreshTol = 0.2
		return r
	case "NSD":
		return nsd.New()
	}
	b.Fatalf("unknown bench aligner %s", name)
	return nil
}

func benchInstance(b *testing.B, n int) (*graph.Graph, *graph.Graph) {
	b.Helper()
	rng := rand.New(rand.NewSource(42))
	src := gen.ErdosRenyi(n, 8/float64(n), rng)
	pair, err := noise.Apply(src, noise.OneWay, 0.02, noise.Options{}, rng)
	if err != nil {
		b.Fatal(err)
	}
	return pair.Source, pair.Target
}

// BenchmarkSteadyStateApply measures one warm incremental re-alignment per
// iteration: a fresh 1%-of-edges edit batch is generated against the current
// target, applied, and re-solved with the warm-started auction.
func BenchmarkSteadyStateApply(b *testing.B) {
	n := benchN()
	for _, name := range []string{"REGAL", "NSD"} {
		b.Run(fmt.Sprintf("%s_n%d", name, n), func(b *testing.B) {
			src, dst := benchInstance(b, n)
			sess, err := NewSession(context.Background(), benchAligner(b, name), src, dst, benchOpts())
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7))
			warm := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				batch, err := noise.EditBatch(sess.Target(), 0.01, rng)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				st, err := sess.Apply(context.Background(), batch)
				if err != nil {
					b.Fatal(err)
				}
				if st.Warm {
					warm++
				}
			}
			b.ReportMetric(float64(warm)/float64(b.N), "warm-frac")
		})
	}
}

// BenchmarkColdRealign is the baseline the steady-state benchmark is
// compared against: a full from-scratch alignment (embeddings, candidate
// generation, assignment) of the same evolving instance after one 1% edit
// batch — what a non-incremental deployment pays on every change.
func BenchmarkColdRealign(b *testing.B) {
	n := benchN()
	for _, name := range []string{"REGAL", "NSD"} {
		b.Run(fmt.Sprintf("%s_n%d", name, n), func(b *testing.B) {
			src, dst := benchInstance(b, n)
			rng := rand.New(rand.NewSource(7))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				batch, err := noise.EditBatch(dst, 0.01, rng)
				if err != nil {
					b.Fatal(err)
				}
				next, err := graph.ApplyEdits(dst, batch)
				if err != nil {
					b.Fatal(err)
				}
				dst = next
				// A fresh aligner instance per iteration: cached artifacts
				// would let the "cold" path cheat via the embed memoization.
				a := benchAligner(b, name)
				b.StartTimer()
				if _, err := NewSession(context.Background(), a, src, dst, benchOpts()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExactApply measures one apply at the session defaults —
// ColTolerance 0 (bitwise change detection, the exact reserve update) and
// DirtyHops 0 — at the shape of the end-to-end evolving workload: a
// Holme–Kim n=600 target and 0.1%-of-edges batches. It is kept out of
// bench_incremental.sh, which measures the tuned configuration above.
func BenchmarkExactApply(b *testing.B) {
	const n = 600
	for _, name := range []string{"REGAL", "NSD"} {
		b.Run(fmt.Sprintf("%s_n%d", name, n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			pair, err := noise.Apply(gen.PowerlawCluster(n, 5, 0.5, rng), noise.OneWay, 0.01, noise.Options{}, rng)
			if err != nil {
				b.Fatal(err)
			}
			var a algo.Aligner = nsd.New()
			if name == "REGAL" {
				a = regal.New()
			}
			sess, err := NewSession(context.Background(), a, pair.Source, pair.Target, Options{TopK: 10})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				batch, err := noise.EditBatch(sess.Target(), 0.001, rng)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := sess.Apply(context.Background(), batch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

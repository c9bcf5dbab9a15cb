package regal

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"graphalign/internal/algotest"
	"graphalign/internal/cache"
	"graphalign/internal/gen"
	"graphalign/internal/graph"
	"graphalign/internal/linalg"
	"graphalign/internal/matrix"
	"graphalign/internal/noise"
	"graphalign/internal/partition"
)

// embedReference is embedState as it stood before the blocked projection:
// it materializes the (n1+n2)×p landmark kernel C and the product
// Y = C·scaled, normalizes Y's rows and copies them out, and takes U of W†
// from the full SVD. It is kept as the oracle for embedState.
func embedReference(ctx context.Context, r *REGAL, src, dst *graph.Graph) (*refreshState, error) {
	n1, n2 := src.N(), dst.N()
	if n1 == 0 || n2 == 0 {
		return nil, errors.New("regal: empty graph")
	}
	total := n1 + n2
	maxDeg := src.MaxDegree()
	if d := dst.MaxDegree(); d > maxDeg {
		maxDeg = d
	}
	buckets := bucketCount(maxDeg)
	sig := matrix.NewDense(total, buckets)
	srcSig := r.newSigner(src, buckets)
	for u := 0; u < n1; u++ {
		srcSig.row(u, sig.Row(u))
	}
	dstSig := r.newSigner(dst, buckets)
	for u := 0; u < n2; u++ {
		dstSig.row(u, sig.Row(n1+u))
	}
	p := int(r.LandmarksFactor*math.Log2(float64(total))) + 1
	if p > total {
		p = total
	}
	rng := rand.New(rand.NewSource(r.Seed))
	landmarks := rng.Perm(total)[:p]

	c := matrix.NewDense(total, p)
	for i := 0; i < total; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		row := c.Row(i)
		for j, l := range landmarks {
			row[j] = regalSim(sig, i, l, r.GammaStruc)
		}
	}
	w := matrix.NewDense(p, p)
	for a, la := range landmarks {
		for b, lb := range landmarks {
			w.Set(a, b, regalSim(sig, la, lb, r.GammaStruc))
		}
	}
	wPinv, err := linalg.PseudoInverseCtx(ctx, w, 1e-10)
	if err != nil {
		return nil, err
	}
	u, s, _, err := linalg.SVDAnyCtx(ctx, wPinv)
	if err != nil {
		return nil, err
	}
	scaled := matrix.NewDense(p, len(s))
	for j, sv := range s {
		f := math.Sqrt(math.Max(sv, 0))
		for i := 0; i < p; i++ {
			scaled.Set(i, j, u.At(i, j)*f)
		}
	}
	y := matrix.Mul(c, scaled)
	for i := 0; i < total; i++ {
		matrix.Normalize(y.Row(i))
	}
	ySrc := matrix.NewDense(n1, y.Cols)
	yDst := matrix.NewDense(n2, y.Cols)
	copy(ySrc.Data, y.Data[:n1*y.Cols])
	copy(yDst.Data, y.Data[n1*y.Cols:])
	return &refreshState{
		srcKey: cache.GraphKey(src), dstKey: cache.GraphKey(dst),
		n1: n1, n2: n2, buckets: buckets,
		sig: sig, landmarks: landmarks, scaled: scaled,
		ySrc: ySrc, yDst: yDst,
	}, nil
}

// kernelRank returns how many singular values of the landmark kernel W of
// st lie above the pseudo-inverse cutoff 1e-10·s_max, and its size p.
func kernelRank(t *testing.T, r *REGAL, st *refreshState) (rank, p int) {
	t.Helper()
	p = len(st.landmarks)
	w := matrix.NewDense(p, p)
	for a, la := range st.landmarks {
		for b, lb := range st.landmarks {
			w.Set(a, b, regalSim(st.sig, la, lb, r.GammaStruc))
		}
	}
	_, s, _, err := linalg.SVDAnyCtx(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range s {
		if v > 1e-10*s[0] {
			rank++
		}
	}
	return rank, p
}

func sameDenseBits(t *testing.T, what string, got, want *matrix.Dense) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, reference %dx%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range got.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: entry %d (row %d) = %v, reference %v", what, i, i/got.Cols, got.Data[i], want.Data[i])
		}
	}
}

// shardPairs co-partitions a powerlaw n=400 pair, its source cut to its
// first 363 nodes, into K=4 shards and returns shards 0 (90+100 nodes,
// a rank-1 landmark kernel) and 1 (91+100 nodes, rank 7).
func shardPairs(t *testing.T) [2][2]*graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	pair, err := noise.Apply(gen.PowerlawCluster(400, 5, 0.5, rng), noise.OneWay, 0.01, noise.Options{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	keep := make([]int, 363)
	for i := range keep {
		keep[i] = i
	}
	src, _ := graph.InducedSubgraph(pair.Source, keep)
	cp := partition.Graphs(src, pair.Target, 4)
	var out [2][2]*graph.Graph
	for i := range out {
		out[i][0], _ = graph.InducedSubgraph(src, cp.SrcClusters[i])
		out[i][1], _ = graph.InducedSubgraph(pair.Target, cp.DstClusters[i])
	}
	return out
}

// TestEmbedStateMatchesReference pins the blocked projection and the V-free
// SVD of W† to the materialized pipeline: ySrc, yDst and scaled must be
// bitwise equal on powerlaw pairs (n = 60, 200, 257), on two co-partitioned
// shards with n1 != n2 — one of them with a rank-1 landmark kernel, the
// degenerate case sharding produces — and on an uneven pair whose 70+131
// rows put a block across the source/target seam.
func TestEmbedStateMatchesReference(t *testing.T) {
	type tc struct {
		name     string
		src, dst *graph.Graph
		rank     int // the landmark kernel's expected rank; 0 leaves it unchecked
	}
	var cases []tc
	for _, n := range []int{60, 200, 257} {
		p := algotest.Pair(t, n, 0.01, int64(n))
		cases = append(cases, tc{name: fmt.Sprintf("pair n=%d", n), src: p.Source, dst: p.Target})
	}
	shards := shardPairs(t)
	cases = append(cases,
		tc{name: "shard 0", src: shards[0][0], dst: shards[0][1], rank: 1},
		tc{name: "shard 1", src: shards[1][0], dst: shards[1][1], rank: 7})
	rng := rand.New(rand.NewSource(8))
	big := gen.ErdosRenyi(131, 6.0/130, rng)
	keep := make([]int, 70)
	for i := range keep {
		keep[i] = 40 + i
	}
	small, _ := graph.InducedSubgraph(big, keep)
	cases = append(cases, tc{name: "uneven 70+131", src: small, dst: big})

	ctx := context.Background()
	for _, c := range cases {
		r := New()
		got, err := r.embedState(ctx, c.src, c.dst)
		if err != nil {
			t.Fatal(err)
		}
		want, err := embedReference(ctx, r, c.src, c.dst)
		if err != nil {
			t.Fatal(err)
		}
		if c.src.N() == c.dst.N() && c.rank != 0 {
			t.Fatalf("%s: shard sizes %d+%d are equal", c.name, c.src.N(), c.dst.N())
		}
		if c.rank != 0 {
			if rank, p := kernelRank(t, r, got); rank != c.rank {
				t.Fatalf("%s: landmark kernel keeps %d of %d singular values, want %d", c.name, rank, p, c.rank)
			}
		}
		sameDenseBits(t, c.name+" scaled", got.scaled, want.scaled)
		sameDenseBits(t, c.name+" ySrc", got.ySrc, want.ySrc)
		sameDenseBits(t, c.name+" yDst", got.yDst, want.yDst)
	}
}

// TestEmbedCtxAllocatesOnlyItsOutput guards the blocked projection: on a
// 500+500 pair (p = 100) EmbedCtx must allocate less than 2.5 times its
// output, (n1+n2)·p float64s. Materializing C, Y = C·scaled and the two
// output copies, as the reference does, takes about four times the output.
func TestEmbedCtxAllocatesOnlyItsOutput(t *testing.T) {
	pair := algotest.Pair(t, 500, 0.01, 7)
	r := New()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ySrc, yDst, err := r.EmbedCtx(context.Background(), pair.Source, pair.Target)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	out := uint64((ySrc.Rows + yDst.Rows) * ySrc.Cols * 8)
	got, limit := after.TotalAlloc-before.TotalAlloc, out*5/2
	t.Logf("EmbedCtx allocated %d bytes (%.2f× its %d-byte output), limit %d", got, float64(got)/float64(out), out, limit)
	if got >= limit {
		t.Errorf("EmbedCtx allocated %d bytes on a %d+%d pair, want < %d (2.5× its output)", got, ySrc.Rows, yDst.Rows, limit)
	}
}

// BenchmarkEmbed times xNetMF on one sharded-workload shard shape: a
// 500+500 powerlaw pair, p = 100 landmarks.
func BenchmarkEmbed(b *testing.B) {
	pair := algotest.Pair(b, 500, 0.01, 7)
	r := New()
	ctx := context.Background()
	b.ReportAllocs()
	for b.Loop() {
		if _, _, err := r.EmbedCtx(ctx, pair.Source, pair.Target); err != nil {
			b.Fatal(err)
		}
	}
}

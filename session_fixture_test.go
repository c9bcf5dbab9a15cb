package graphalign_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"graphalign"
	"graphalign/internal/algo"
	"graphalign/internal/algotest"
	"graphalign/internal/assign"
	"graphalign/internal/incremental"
	"graphalign/internal/noise"
)

// sessionFixtureAlgos are the aligners with a sparse scorer the fixture
// pins: REGAL's embedding and NSD's and LREA's factor lists.
var sessionFixtureAlgos = []string{"REGAL", "NSD", "LREA"}

// sessionFixtureSizes are the small unit-test size and an odd size whose
// remainder exercises every blocked kernel's tail.
var sessionFixtureSizes = []int{60, 257}

func hashInts(h hash.Hash, xs ...int) {
	var buf [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
}

func hashFloats(h hash.Hash, xs []float64) {
	var buf [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
}

// topKDigest hashes the shape, columns and IEEE-754 value bits of the
// sequential top-16 candidate lists over the aligner's scorer.
func topKDigest(t *testing.T, a graphalign.Aligner, p noise.Pair) string {
	t.Helper()
	sa, ok := a.(algo.ScoringAligner)
	if !ok {
		t.Fatalf("%s exposes no scorer", a.Name())
	}
	sc, err := sa.ScorerCtx(context.Background(), p.Source, p.Target)
	if err != nil {
		t.Fatal(err)
	}
	c := assign.TopK(sc, 16, 1)
	h := sha256.New()
	hashInts(h, c.Rows, c.Cols, c.K)
	hashInts(h, c.Col...)
	hashFloats(h, c.Val)
	return hex.EncodeToString(h.Sum(nil))
}

// sessionDigest replays a seeded five-batch edit stream plus one empty batch
// through an incremental session and hashes the initial mapping and, after
// every apply, the mapping and the apply's change counters.
func sessionDigest(t *testing.T, a graphalign.Aligner, p noise.Pair, seed int64, opts incremental.Options) string {
	t.Helper()
	edits, _, err := noise.EditStream(p.Target, 5, 0.02, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	edits = append(edits, nil)
	ctx := context.Background()
	s, err := incremental.NewSession(ctx, a, p.Source, p.Target, opts)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	hashInts(h, s.Mapping()...)
	for _, batch := range edits {
		st, err := s.Apply(ctx, batch)
		if err != nil {
			t.Fatal(err)
		}
		hashInts(h, s.Mapping()...)
		warm := 0
		if st.Warm {
			warm = 1
		}
		hashInts(h, st.ChangedRows, st.ChangedCols, st.DirtyRows, warm, st.Rounds)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSessionFixture pins the sparse and incremental paths bit for bit, as
// TestSimilarityFixture pins the dense similarities: the top-k candidate
// lists of every scorer-exposing aligner, and a replayed incremental
// session's mappings and change counters at exact (ColTolerance 0) and
// tolerant (0.2, two dirty hops) settings. Signature, factor-scoring and
// edit-application kernels may be restructured for speed only if these
// digests hold. amd64 only, for the same reason as the similarity fixture.
func TestSessionFixture(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("session digests are pinned on amd64, not %s", runtime.GOARCH)
	}
	if testing.Short() {
		t.Skip("replays incremental sessions for three aligners at two sizes")
	}
	want := readSimilarityFixture(t, "testdata/session_sha256.txt")
	settings := []struct {
		name string
		opts incremental.Options
	}{
		{"exact", incremental.Options{TopK: 16, Workers: 1}},
		{"tolerant", incremental.Options{TopK: 16, Workers: 1, ColTolerance: 0.2, DirtyHops: 2}},
	}
	check := func(t *testing.T, key, got string) {
		t.Helper()
		if w, ok := want[key]; !ok {
			t.Errorf("no fixture entry; computed line: %s %s", key, got)
		} else if got != w {
			t.Errorf("%s: digest %s, want %s", key, got, w)
		}
	}
	for _, name := range sessionFixtureAlgos {
		t.Run(name, func(t *testing.T) {
			for _, n := range sessionFixtureSizes {
				p := algotest.Pair(t, n, 0.01, int64(n))
				a, err := graphalign.NewAligner(name)
				if err != nil {
					t.Fatal(err)
				}
				check(t, fmt.Sprintf("%s/topk %d", name, n), topKDigest(t, a, p))
				for _, set := range settings {
					// A fresh aligner per session: refreshers keep
					// pair-specific state.
					a, err := graphalign.NewAligner(name)
					if err != nil {
						t.Fatal(err)
					}
					check(t, fmt.Sprintf("%s/%s %d", name, set.name, n), sessionDigest(t, a, p, int64(n), set.opts))
				}
			}
		})
	}
}

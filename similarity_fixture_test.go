package graphalign_test

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"graphalign"
	"graphalign/internal/algotest"
)

// fixtureSizes are the node counts of the pinned instances: the small size
// the unit tests use, the dense-paper benchmark size, and an odd size whose
// remainder exercises every blocked kernel's tail.
var fixtureSizes = []int{60, 200, 257}

// simDigest hashes a similarity matrix's shape and the IEEE-754 bits of
// every entry in row-major order.
func simDigest(rows, cols int, data []float64) string {
	h := sha256.New()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(rows))
	h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], uint64(cols))
	h.Write(buf[:])
	for _, v := range data {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// readSimilarityFixture parses "algo n sha256" lines.
func readSimilarityFixture(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			t.Fatalf("%s: malformed line %q", path, line)
		}
		want[fields[0]+" "+fields[1]] = fields[2]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestSimilarityFixture pins the dense similarity matrix of every aligner,
// bit for bit, on seeded powerlaw pairs. The kernels under the aligners
// (eigensolver, Sinkhorn, distance and sparse-dense products) may be
// re-blocked for speed only if every per-element sum keeps its summation
// order; this test is what holds them to it. The digests are amd64 ones:
// other architectures may fuse multiply-adds and compute math.Exp
// differently, so the test skips there.
func TestSimilarityFixture(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("similarity digests are pinned on amd64, not %s", runtime.GOARCH)
	}
	if testing.Short() {
		t.Skip("aligns every algorithm at three sizes")
	}
	want := readSimilarityFixture(t, "testdata/similarity_sha256.txt")
	for _, name := range graphalign.Algorithms() {
		t.Run(name, func(t *testing.T) {
			for _, n := range fixtureSizes {
				p := algotest.Pair(t, n, 0.01, int64(n))
				a, err := graphalign.NewAligner(name)
				if err != nil {
					t.Fatal(err)
				}
				sim, err := a.Similarity(context.Background(), p.Source, p.Target)
				if err != nil {
					t.Fatal(err)
				}
				key := fmt.Sprintf("%s %d", name, n)
				got := simDigest(sim.Rows, sim.Cols, sim.Data)
				if w, ok := want[key]; !ok {
					t.Errorf("no fixture entry; computed line: %s %s", key, got)
				} else if got != w {
					t.Errorf("%s: similarity digest %s, want %s", key, got, w)
				}
			}
		})
	}
}

package graphalign_test

import (
	"context"
	"testing"

	"graphalign"
	"graphalign/internal/algo"
	"graphalign/internal/algotest"
	"graphalign/internal/assign"
	"graphalign/internal/core"
)

// TestConformance runs the framework-level conformance suite — self-alignment
// accuracy, node-relabeling invariance, and cache-on vs cache-off
// byte-identity of the similarity matrix — against all nine aligners of the
// study. Instance sizes and thresholds are per algorithm: the
// optimal-transport and embedding methods get smaller instances (they are the
// slow ones) and the loosest bars, mirroring the recovery thresholds each
// algorithm's own package asserts.
func TestConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("conformance suite runs every aligner several times")
	}
	mk := func(name string) func() algo.Aligner {
		return func() algo.Aligner {
			a, err := graphalign.NewAligner(name)
			if err != nil {
				t.Fatal(err)
			}
			return a
		}
	}
	cases := []algotest.Conformance{
		{Name: "IsoRank", New: mk("IsoRank"), N: 80, SelfMinAcc: 0.9, Partitioned: 4},
		{Name: "GRAAL", New: mk("GRAAL"), N: 80, SelfMinAcc: 0.85, Partitioned: 4},
		{Name: "NSD", New: mk("NSD"), N: 80, SelfMinAcc: 0.85, SparseTopK: 16, Partitioned: 4},
		{Name: "LREA", New: mk("LREA"), N: 80, SelfMinAcc: 0.9, SparseTopK: 16, Partitioned: 4},
		{Name: "REGAL", New: mk("REGAL"), N: 80, SelfMinAcc: 0.8, RelabelTol: 0.25, SparseTopK: 16, Partitioned: 4},
		{Name: "GWL", New: mk("GWL"), N: 60, SelfMinAcc: 0.7, RelabelTol: 0.25, Partitioned: 4},
		{Name: "S-GWL", New: mk("S-GWL"), N: 60, SelfMinAcc: 0.8, RelabelTol: 0.25, Partitioned: 4},
		{Name: "CONE", New: mk("CONE"), N: 60, SelfMinAcc: 0.8, RelabelTol: 0.25, Partitioned: 4},
		{Name: "GRASP", New: mk("GRASP"), N: 80, SelfMinAcc: 0.85, Partitioned: 4},
	}
	if len(cases) != len(graphalign.Algorithms()) {
		t.Fatalf("conformance covers %d algorithms, registry has %d", len(cases), len(graphalign.Algorithms()))
	}
	algotest.RunConformance(t, cases)
}

// TestPartitionOffIdentity is the partition off-switch guard: running every
// aligner through the core runner with Partitions 0 (the zero value) or 1
// must produce exactly the mapping of a plain monolithic alignment — the
// sharding layer may not perturb the default path in any way. It lives here
// rather than in algotest because it exercises core.RunInstance, and
// algotest cannot import core without an import cycle.
func TestPartitionOffIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("aligns every algorithm three times")
	}
	for _, name := range graphalign.Algorithms() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			n := 80
			switch name {
			case "GWL", "S-GWL", "CONE":
				n = 60
			}
			mk := func() algo.Aligner {
				a, err := graphalign.NewAligner(name)
				if err != nil {
					t.Fatal(err)
				}
				return a
			}
			p := algotest.Pair(t, n, 0.02, 31337)
			mono, err := algo.Run(context.Background(), mk(), p.Source, p.Target, algo.Plan{Method: assign.JonkerVolgenant})
			if err != nil {
				t.Fatal(err)
			}
			want := mono.Mapping
			for _, parts := range []int{0, 1} {
				res, got := core.RunInstance(context.Background(), func() (algo.Aligner, error) { return mk(), nil }, p,
					assign.JonkerVolgenant, core.RunSpec{Partitions: parts})
				if res.Err != nil {
					t.Fatalf("Partitions=%d: %v", parts, res.Err)
				}
				if len(got) != len(want) {
					t.Fatalf("Partitions=%d: mapping length %d vs %d", parts, len(got), len(want))
				}
				for u := range want {
					if got[u] != want[u] {
						t.Fatalf("Partitions=%d: mapping[%d]=%d differs from monolithic %d",
							parts, u, got[u], want[u])
					}
				}
			}
		})
	}
}

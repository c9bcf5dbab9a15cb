// Package data provides the benchmark datasets of the study's Table 2 as
// deterministic synthetic stand-ins, plus the evolving ground-truth graphs
// of Section 6.5.
//
// The original study downloads sixteen public networks; this repository is
// built for offline use, so each dataset is synthesized with the same node
// count, a closely matching edge count, and the degree character of its
// network type (see DESIGN.md, substitution 1):
//
//   - social / communication / collaboration -> powerlaw (Holme–Kim)
//   - infrastructure -> ring-lattice with shortcut noise (grid-like, sparse)
//   - proximity -> dense small-world (Watts–Strogatz)
//   - biological -> triangle-heavy powerlaw (Holme–Kim, high clustering)
//
// Stand-ins are generated from fixed seeds so every experiment is
// reproducible bit-for-bit.
package data

import (
	"fmt"
	"math/rand"
	"sort"

	"graphalign/internal/gen"
	"graphalign/internal/graph"
	"graphalign/internal/noise"
)

// Kind classifies a dataset's network type (Table 2's "Type" column).
type Kind string

// Network types appearing in Table 2.
const (
	Communication  Kind = "communication"
	Social         Kind = "social"
	Collaboration  Kind = "collaboration"
	Infrastructure Kind = "infrastructure"
	Biological     Kind = "biological"
	Proximity      Kind = "proximity"
)

// Dataset describes one Table 2 entry.
type Dataset struct {
	Name string
	N    int // paper's node count
	M    int // paper's edge count
	Kind Kind
	Seed int64
	// Evolving marks the three ground-truth datasets of Section 6.5.
	Evolving bool
}

// catalog mirrors Table 2 of the paper.
var catalog = []Dataset{
	{Name: "arenas", N: 1133, M: 5451, Kind: Communication, Seed: 101},
	{Name: "facebook", N: 4039, M: 88234, Kind: Social, Seed: 102},
	{Name: "ca-astroph", N: 17903, M: 197031, Kind: Collaboration, Seed: 103},
	{Name: "inf-euroroad", N: 1174, M: 1417, Kind: Infrastructure, Seed: 104},
	{Name: "inf-power", N: 4941, M: 6594, Kind: Infrastructure, Seed: 105},
	{Name: "fb-haverford76", N: 1446, M: 59589, Kind: Social, Seed: 106},
	{Name: "fb-hamilton46", N: 2314, M: 96394, Kind: Social, Seed: 107},
	{Name: "fb-bowdoin47", N: 2252, M: 84387, Kind: Social, Seed: 108},
	{Name: "fb-swarthmore42", N: 1659, M: 61050, Kind: Social, Seed: 109},
	{Name: "soc-hamsterster", N: 2426, M: 16630, Kind: Social, Seed: 110},
	{Name: "bio-celegans", N: 453, M: 2025, Kind: Biological, Seed: 111},
	{Name: "ca-grqc", N: 4158, M: 14422, Kind: Collaboration, Seed: 112},
	{Name: "ca-netscience", N: 379, M: 914, Kind: Collaboration, Seed: 113},
	{Name: "multimagna", N: 1004, M: 8323, Kind: Biological, Seed: 114, Evolving: true},
	{Name: "highschool", N: 327, M: 5818, Kind: Proximity, Seed: 115, Evolving: true},
	{Name: "voles", N: 712, M: 2391, Kind: Proximity, Seed: 116, Evolving: true},
}

// Names returns every dataset name in Table 2 order.
func Names() []string {
	out := make([]string, len(catalog))
	for i, d := range catalog {
		out[i] = d.Name
	}
	return out
}

// Describe returns the catalog entry for a dataset name.
func Describe(name string) (Dataset, error) {
	for _, d := range catalog {
		if d.Name == name {
			return d, nil
		}
	}
	names := Names()
	sort.Strings(names)
	return Dataset{}, fmt.Errorf("data: unknown dataset %q (have %v)", name, names)
}

// Load synthesizes the stand-in graph for a Table 2 dataset. Repeated calls
// return identical graphs (fixed seed).
func Load(name string) (*graph.Graph, error) {
	d, err := Describe(name)
	if err != nil {
		return nil, err
	}
	return synthesize(d), nil
}

// LoadScaled synthesizes a reduced-size version of the dataset, preserving
// its average degree; useful on machines far smaller than the paper's
// 28-core/256 GB testbed. scale must be in (0, 1].
func LoadScaled(name string, scale float64) (*graph.Graph, error) {
	d, err := Describe(name)
	if err != nil {
		return nil, err
	}
	if scale <= 0 || scale > 1 {
		return nil, fmt.Errorf("data: scale %v out of (0, 1]", scale)
	}
	if scale < 1 {
		avg := 2 * float64(d.M) / float64(d.N)
		d.N = int(float64(d.N) * scale)
		if d.N < 32 {
			d.N = 32
		}
		d.M = int(avg * float64(d.N) / 2)
	}
	return synthesize(d), nil
}

// synthesize builds the stand-in according to the dataset's network kind.
func synthesize(d Dataset) *graph.Graph {
	rng := rand.New(rand.NewSource(d.Seed))
	avg := 2 * float64(d.M) / float64(d.N)
	switch d.Kind {
	case Infrastructure:
		// Grid-like sparse nets: ring lattice with a few shortcuts.
		k := int(avg + 0.5)
		if k < 2 {
			k = 2
		}
		if k%2 == 1 {
			k++
		}
		return gen.NewmanWatts(d.N, k, 0.05, rng)
	case Proximity:
		// Dense small-world contact structure: homogeneous degrees with
		// heavy clustering, the shape of face-to-face proximity networks.
		k := int(avg + 0.5)
		if k%2 == 1 {
			k++
		}
		if k < 2 {
			k = 2
		}
		if k >= d.N {
			k = d.N - 2
		}
		return gen.WattsStrogatz(d.N, k, 0.3, rng)
	case Biological:
		// Protein-interaction networks: skewed degrees with strong local
		// clustering (triangle-heavy powerlaw growth).
		m := int(avg / 2)
		if m < 1 {
			m = 1
		}
		g := gen.PowerlawCluster(d.N, m, 0.7, rng)
		return topUpEdges(g, d.M, rng)
	default:
		// Powerlaw-flavored social/communication/collaboration networks.
		// PL growth adds a fixed integer m of edges per node, so top up with
		// random extra edges to land on the paper's edge count.
		m := int(avg / 2)
		if m < 1 {
			m = 1
		}
		g := gen.PowerlawCluster(d.N, m, 0.3, rng)
		return topUpEdges(g, d.M, rng)
	}
}

// topUpEdges adds uniformly random absent edges until the graph reaches the
// target edge count (no-op when already at or above it).
func topUpEdges(g *graph.Graph, targetM int, rng *rand.Rand) *graph.Graph {
	missing := targetM - g.M()
	if missing <= 0 {
		return g
	}
	edges := g.Edges()
	existing := make(map[graph.Edge]bool, len(edges)+missing)
	for _, e := range edges {
		existing[e.Canon()] = true
	}
	n := g.N()
	for tries := 0; missing > 0 && tries < 100*targetM; tries++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		e := graph.Edge{U: u, V: v}.Canon()
		if existing[e] {
			continue
		}
		existing[e] = true
		edges = append(edges, e)
		missing--
	}
	return graph.MustNew(n, edges)
}

// EvolvingVariantsScaled returns the alignment instances of Section 6.5:
// the base graph, reduced in size by scale (see LoadScaled; 1 keeps the
// full size), matched against variants retaining each of the given edge
// fractions. The returned pairs carry identity-free ground truth via
// their TrueMap (a hidden node permutation), exactly like the noise
// instances, but the perturbation is pure edge subsampling of the base.
func EvolvingVariantsScaled(name string, fractions []float64, scale float64) ([]noise.Pair, error) {
	d, err := Describe(name)
	if err != nil {
		return nil, err
	}
	if !d.Evolving {
		return nil, fmt.Errorf("data: dataset %q has no evolving variants", name)
	}
	if scale <= 0 || scale > 1 {
		return nil, fmt.Errorf("data: scale %v out of (0, 1]", scale)
	}
	if scale < 1 {
		avg := 2 * float64(d.M) / float64(d.N)
		d.N = int(float64(d.N) * scale)
		if d.N < 32 {
			d.N = 32
		}
		d.M = int(avg * float64(d.N) / 2)
	}
	base := synthesize(d)
	rng := rand.New(rand.NewSource(d.Seed + 7_000))
	out := make([]noise.Pair, 0, len(fractions))
	for _, f := range fractions {
		if f <= 0 || f > 1 {
			return nil, fmt.Errorf("data: edge fraction %v out of (0, 1]", f)
		}
		p, err := noise.Apply(base, noise.OneWay, 1-f, noise.Options{}, rng)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// applyEditsReference is ApplyEdits as it stood before it tracked only the
// touched edges: a map of the whole edge set, edited in order, then sorted.
// It is kept as the oracle for the map-free version.
func applyEditsReference(g *Graph, edits []Edit) (*Graph, error) {
	if len(edits) == 0 {
		return g.Clone(), nil
	}
	n := g.N()
	present := make(map[Edge]bool, g.M()+len(edits))
	for _, e := range g.Edges() {
		present[e] = true
	}
	for i, ed := range edits {
		if ed.U < 0 || ed.U >= n || ed.V < 0 || ed.V >= n {
			return nil, fmt.Errorf("graph: edit %d: endpoint out of range [0,%d): (%d,%d)", i, n, ed.U, ed.V)
		}
		if ed.U == ed.V {
			return nil, fmt.Errorf("graph: edit %d: self-loop at node %d", i, ed.U)
		}
		key := Edge{U: ed.U, V: ed.V}.Canon()
		switch ed.Op {
		case EditAdd:
			if present[key] {
				return nil, fmt.Errorf("graph: edit %d: add of present edge (%d,%d)", i, key.U, key.V)
			}
			present[key] = true
		case EditRemove:
			if !present[key] {
				return nil, fmt.Errorf("graph: edit %d: remove of absent edge (%d,%d)", i, key.U, key.V)
			}
			delete(present, key)
		default:
			return nil, fmt.Errorf("graph: edit %d: unknown op %d", i, ed.Op)
		}
	}
	edges := make([]Edge, 0, len(present))
	for e := range present {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].U != edges[j].U {
			return edges[i].U < edges[j].U
		}
		return edges[i].V < edges[j].V
	})
	return New(n, edges)
}

// sameGraph reports whether two graphs have identical CSR storage.
func sameGraph(a, b *Graph) bool {
	return a.n == b.n && reflect.DeepEqual(a.offsets, b.offsets) && reflect.DeepEqual(a.neigh, b.neigh)
}

// checkApplyEditsMatchesReference fails unless ApplyEdits and the map-based
// reference agree on the batch: the same graph, or the same error string.
func checkApplyEditsMatchesReference(t *testing.T, g *Graph, edits []Edit) {
	t.Helper()
	got, gotErr := ApplyEdits(g, edits)
	want, wantErr := applyEditsReference(g, edits)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("edits %v: error %v, reference error %v", edits, gotErr, wantErr)
	}
	if gotErr != nil {
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("edits %v: error %q, reference %q", edits, gotErr, wantErr)
		}
		if got != nil {
			t.Fatalf("edits %v: graph returned alongside error", edits)
		}
		return
	}
	if !sameGraph(got, want) {
		t.Fatalf("edits %v: graph %v, reference %v", edits, got.Edges(), want.Edges())
	}
}

// TestApplyEditsMatchesReference pins ApplyEdits to the map-based version
// on every error kind, on add-then-remove and remove-then-add of one edge,
// and on seeded random batches (mostly applicable, some not).
func TestApplyEditsMatchesReference(t *testing.T) {
	g := MustNew(6, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 5}})
	cases := [][]Edit{
		nil,
		{{Op: EditAdd, U: 0, V: 1}},    // add of present edge
		{{Op: EditAdd, U: 1, V: 0}},    // flipped
		{{Op: EditRemove, U: 0, V: 2}}, // remove of absent edge
		{{Op: EditAdd, U: 4, V: 4}},    // self-loop
		{{Op: EditAdd, U: 0, V: 6}},    // out of range
		{{Op: EditAdd, U: -1, V: 2}},   // negative endpoint
		{{Op: EditOp(7), U: 0, V: 2}},  // unknown op
		{{Op: EditAdd, U: 0, V: 2}, {Op: EditRemove, U: 2, V: 0}},    // add then remove
		{{Op: EditRemove, U: 0, V: 1}, {Op: EditAdd, U: 1, V: 0}},    // remove then add
		{{Op: EditRemove, U: 3, V: 4}, {Op: EditRemove, U: 4, V: 3}}, // double remove
		{{Op: EditAdd, U: 2, V: 5}, {Op: EditAdd, U: 5, V: 2}},       // double add
		{{Op: EditRemove, U: 0, V: 1}, {Op: EditRemove, U: 1, V: 2}, {Op: EditRemove, U: 2, V: 3},
			{Op: EditRemove, U: 3, V: 4}, {Op: EditRemove, U: 0, V: 5}}, // remove everything
		{{Op: EditAdd, U: 4, V: 5}, {Op: EditAdd, U: 0, V: 3}, {Op: EditRemove, U: 1, V: 2}, {Op: EditAdd, U: 1, V: 5}},
		{{Op: EditAdd, U: 1, V: 5}, {Op: EditAdd, U: 3, V: 3}}, // error after a valid edit
	}
	for _, edits := range cases {
		checkApplyEditsMatchesReference(t, g, edits)
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(12)
		var edges []Edge
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Intn(3) == 0 {
					edges = append(edges, Edge{u, v})
				}
			}
		}
		base := MustNew(n, edges)
		edits := make([]Edit, rng.Intn(8))
		for i := range edits {
			edits[i] = Edit{Op: EditOp(rng.Intn(2)), U: rng.Intn(n), V: rng.Intn(n)}
			if rng.Intn(20) == 0 {
				edits[i].V = n
			}
		}
		checkApplyEditsMatchesReference(t, base, edits)
	}
}

// FuzzApplyEdits decodes a small graph and an edit batch from the fuzz
// input and asserts that ApplyEdits returns exactly what the map-based
// reference returns: the same graph, or the same error. Edit endpoints
// range over [-1, n] and ops over one undefined value, so every error kind
// is reachable.
func FuzzApplyEdits(f *testing.F) {
	f.Add(uint8(5), []byte{0, 1, 1, 2, 2, 3}, []byte{1, 1, 2, 0, 1, 4})
	f.Add(uint8(3), []byte{0, 1}, []byte{0, 1, 2, 1, 1, 2})
	f.Add(uint8(4), []byte{}, []byte{2, 0, 1, 0, 3, 3, 0, 0, 5})
	f.Add(uint8(8), []byte{0, 1, 2, 3, 4, 5, 6, 7}, []byte{1, 1, 2, 0, 1, 2, 1, 3, 4, 0, 2, 6})
	f.Fuzz(func(t *testing.T, nb uint8, edgeBytes, editBytes []byte) {
		n := 1 + int(nb)%16
		var edges []Edge
		seen := map[Edge]bool{}
		for i := 0; i+1 < len(edgeBytes); i += 2 {
			e := Edge{int(edgeBytes[i]) % n, int(edgeBytes[i+1]) % n}.Canon()
			if e.U != e.V && !seen[e] {
				seen[e] = true
				edges = append(edges, e)
			}
		}
		g := MustNew(n, edges)
		var edits []Edit
		for i := 0; i+2 < len(editBytes) && len(edits) < 32; i += 3 {
			edits = append(edits, Edit{
				Op: EditOp(editBytes[i] % 3),
				U:  int(editBytes[i+1])%(n+2) - 1,
				V:  int(editBytes[i+2])%(n+2) - 1,
			})
		}
		checkApplyEditsMatchesReference(t, g, edits)
	})
}

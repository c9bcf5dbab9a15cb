package graph

import (
	"reflect"
	"strings"
	"testing"
)

func TestApplyEditsRoundTrip(t *testing.T) {
	g := MustNew(5, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
	edits := []Edit{
		{Op: EditRemove, U: 1, V: 2},
		{Op: EditAdd, U: 0, V: 4},
		{Op: EditAdd, U: 1, V: 3},
	}
	h, err := ApplyEdits(g, edits)
	if err != nil {
		t.Fatal(err)
	}
	if h.N() != 5 || h.M() != 5 {
		t.Fatalf("got n=%d m=%d, want n=5 m=5", h.N(), h.M())
	}
	if h.HasEdge(1, 2) {
		t.Error("removed edge (1,2) still present")
	}
	for _, e := range []Edge{{0, 4}, {1, 3}, {0, 1}, {2, 3}, {3, 4}} {
		if !h.HasEdge(e.U, e.V) {
			t.Errorf("edge (%d,%d) missing", e.U, e.V)
		}
	}
	// The original graph is untouched.
	if !g.HasEdge(1, 2) || g.M() != 4 {
		t.Error("ApplyEdits mutated its input")
	}
	// Inverse batch restores the original structure.
	inv := []Edit{
		{Op: EditRemove, U: 1, V: 3},
		{Op: EditRemove, U: 0, V: 4},
		{Op: EditAdd, U: 1, V: 2},
	}
	back, err := ApplyEdits(h, inv)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Edges(), g.Edges()) {
		t.Error("inverse edits did not restore the original edge set")
	}
}

func TestApplyEditsEmptyIsClone(t *testing.T) {
	g := MustNew(4, []Edge{{0, 1}, {2, 3}})
	h, err := ApplyEdits(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(h.Edges(), g.Edges()) || h.N() != g.N() {
		t.Error("empty batch must clone the graph unchanged")
	}
}

func TestApplyEditsRejectsInapplicable(t *testing.T) {
	g := MustNew(3, []Edge{{0, 1}})
	cases := []struct {
		name  string
		edits []Edit
	}{
		{"add-present", []Edit{{Op: EditAdd, U: 0, V: 1}}},
		{"add-present-flipped", []Edit{{Op: EditAdd, U: 1, V: 0}}},
		{"remove-absent", []Edit{{Op: EditRemove, U: 1, V: 2}}},
		{"self-loop", []Edit{{Op: EditAdd, U: 2, V: 2}}},
		{"out-of-range", []Edit{{Op: EditAdd, U: 0, V: 3}}},
		{"double-remove", []Edit{{Op: EditRemove, U: 0, V: 1}, {Op: EditRemove, U: 0, V: 1}}},
	}
	for _, tc := range cases {
		if _, err := ApplyEdits(g, tc.edits); err == nil {
			t.Errorf("%s: expected an error", tc.name)
		}
	}
	// Order matters: remove-then-add of the same edge is applicable.
	if _, err := ApplyEdits(g, []Edit{{Op: EditRemove, U: 0, V: 1}, {Op: EditAdd, U: 0, V: 1}}); err != nil {
		t.Errorf("remove-then-re-add should be applicable: %v", err)
	}
}

func TestTouched(t *testing.T) {
	edits := []Edit{
		{Op: EditAdd, U: 4, V: 1},
		{Op: EditRemove, U: 1, V: 2},
	}
	got := Touched(edits)
	want := []int{1, 2, 4}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Touched = %v, want %v", got, want)
	}
}

func TestReadEditStreamFormat(t *testing.T) {
	in := "# comment\nadd 0 1\ndel 2 3\n\n\nnoop\n\nrm 4 5\n"
	got, err := ReadEditStream(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d batches, want 3: %v", len(got), got)
	}
	if len(got[0]) != 2 || len(got[1]) != 0 || len(got[2]) != 1 {
		t.Fatalf("batch sizes wrong: %v", got)
	}
	if got[2][0] != (Edit{Op: EditRemove, U: 4, V: 5}) {
		t.Fatalf("rm alias parsed wrong: %v", got[2][0])
	}
	if _, err := ReadEditStream(strings.NewReader("bogus 1 2\n")); err == nil {
		t.Error("unknown op must error")
	}
	if _, err := ReadEditStream(strings.NewReader("add 1\n")); err == nil {
		t.Error("short line must error")
	}
}

package graph

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// FuzzReadEdgeList drives the edge-list parser with arbitrary inputs and
// asserts its structural invariants: no panic, and on success a graph that
// is simple (no self-loops, no duplicate edges), consistent with the label
// table, and stable under a write/re-read round trip.
func FuzzReadEdgeList(f *testing.F) {
	seeds := []string{
		"",                                      // empty file
		"# comment only\n% other",               // comments and no edges
		"0 1\n1 2\n2 0\n",                       // plain triangle
		"a b\nb c\nc a\n",                       // string labels
		"0 0\n1 1\n0 1\n",                       // self-loops among real edges
		"0 1\n1 0\n0 1\n",                       // duplicates in both orientations
		"0 1 extra fields here\n",               // trailing fields ignored
		"0\n",                                   // too few fields: must error, not panic
		"  3   4  \n\n\n5 6",                    // odd whitespace and blank lines
		"18446744073709551615 1\n-7 x\n1e9 2\n", // huge/negative/float-ish ids stay labels
		"\x00 \x01\n",                           // control bytes as labels
		"0 1\r\n2 3\r\n",                        // CRLF line endings
		"# big ids\n999999999 1000000000\n999999999 1\n",
		strings.Repeat("7 8\n", 50), // heavy duplication
		"u\tv\nv\tw\n",              // tab separators
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, labels, err := ReadEdgeList(bytes.NewReader(data))
		if err != nil {
			if g != nil {
				t.Fatal("non-nil graph returned alongside an error")
			}
			return
		}
		if g.N() != len(labels) {
			t.Fatalf("graph has %d nodes but %d labels", g.N(), len(labels))
		}
		uniq := make(map[string]bool, len(labels))
		for _, l := range labels {
			if uniq[l] {
				t.Fatalf("label %q interned twice", l)
			}
			uniq[l] = true
		}
		seen := make(map[Edge]bool, g.M())
		for _, e := range g.Edges() {
			if e.U == e.V {
				t.Fatalf("self-loop survived parsing: %v", e)
			}
			if e.U < 0 || e.U >= g.N() || e.V < 0 || e.V >= g.N() {
				t.Fatalf("edge %v out of node range [0,%d)", e, g.N())
			}
			c := e.Canon()
			if seen[c] {
				t.Fatalf("duplicate edge survived parsing: %v", e)
			}
			seen[c] = true
		}
		// Round trip: writing the parsed graph and re-reading it must
		// reproduce the same edge set. The writer emits only edges, so
		// isolated nodes are legitimately lost and the reader re-interns ids
		// in first-appearance order; labels2 (the written dense ids as
		// strings) map the re-read edges back to g's numbering.
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatalf("writing parsed graph: %v", err)
		}
		g2, labels2, err := ReadEdgeList(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-reading written graph: %v", err)
		}
		if g2.M() != g.M() {
			t.Fatalf("round trip changed edge count: %d -> %d", g.M(), g2.M())
		}
		toOrig := func(id int) int {
			n, err := strconv.Atoi(labels2[id])
			if err != nil {
				t.Fatalf("written label %q is not a dense id", labels2[id])
			}
			return n
		}
		for _, e := range g2.Edges() {
			orig := Edge{U: toOrig(e.U), V: toOrig(e.V)}.Canon()
			if !seen[orig] {
				t.Fatalf("round trip invented edge %v (original ids %v)", e, orig)
			}
		}
	})
}

// FuzzReadEditStream drives the edit-stream parser with arbitrary inputs:
// it must never panic, and every edit it accepts must name two
// non-negative node ids and one of the defined ops.
func FuzzReadEditStream(f *testing.F) {
	seeds := []string{
		"add 0 1\ndel 2 3\n\nnoop\n\ndel 4 5\n", // two edits, explicit empty batch, one edit
		"# comment\nadd 0 1\ndel 2 3\n\n\nnoop\n\nrm 4 5\n",
		"",
		"noop\n",
		"add -1 2\n",
		"add 1a 2\n",
		"del 0x10 3\n",
		"add 1 2 3\n",
		"remove 99999999999999999999 1\n",
		"add 0 1\r\n\r\ndel 0 1\r\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		batches, err := ReadEditStream(bytes.NewReader(data))
		if err != nil {
			if batches != nil {
				t.Fatal("non-nil batches returned alongside an error")
			}
			return
		}
		for bi, batch := range batches {
			for ei, e := range batch {
				if e.U < 0 || e.V < 0 {
					t.Fatalf("batch %d edit %d: negative node id in %+v", bi, ei, e)
				}
				if e.Op != EditAdd && e.Op != EditRemove {
					t.Fatalf("batch %d edit %d: undefined op %d", bi, ei, e.Op)
				}
			}
		}
	})
}

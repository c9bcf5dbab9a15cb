package graph

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// EditOp is the kind of one graph edit.
type EditOp int

const (
	// EditAdd inserts an absent edge.
	EditAdd EditOp = iota
	// EditRemove deletes a present edge.
	EditRemove
)

// String returns the textual form used by edit-stream files ("add"/"del").
func (op EditOp) String() string {
	if op == EditAdd {
		return "add"
	}
	return "del"
}

// Edit is one edge mutation of an evolving graph — the delta format of the
// incremental alignment mode. Graphs stay immutable: ApplyEdits builds a new
// graph from a batch of edits rather than mutating in place, so every graph
// version remains shareable across goroutines and usable as a cache key.
type Edit struct {
	Op   EditOp
	U, V int
}

// Canon returns the edit with endpoints ordered so that U <= V.
func (e Edit) Canon() Edit {
	if e.U > e.V {
		return Edit{e.Op, e.V, e.U}
	}
	return e
}

// Touched returns the distinct endpoints of a batch of edits in ascending
// order — the seed set of the incremental pipeline's dirty-node BFS.
func Touched(edits []Edit) []int {
	seen := make(map[int]bool, 2*len(edits))
	out := make([]int, 0, 2*len(edits))
	for _, e := range edits {
		if !seen[e.U] {
			seen[e.U] = true
			out = append(out, e.U)
		}
		if !seen[e.V] {
			seen[e.V] = true
			out = append(out, e.V)
		}
	}
	sort.Ints(out)
	return out
}

// ApplyEdits builds the graph that results from applying the batch of edits
// to g, in order. The node count is unchanged — edits mutate edges only.
// Every edit must be applicable at its position in the batch: adding a
// present edge, removing an absent one, self-loops and out-of-range
// endpoints are errors (an inapplicable edit means the caller's view of the
// graph has drifted from the graph itself, which the incremental pipeline
// must surface rather than paper over). An empty batch returns a clone.
//
// Only the edges the batch touches are tracked: each starts from its state
// in g, and the result keeps g's other edges as they are.
func ApplyEdits(g *Graph, edits []Edit) (*Graph, error) {
	if len(edits) == 0 {
		return g.Clone(), nil
	}
	n := g.N()
	touched := make(map[Edge]bool, len(edits)) // edge -> present after the edits so far
	for i, ed := range edits {
		if ed.U < 0 || ed.U >= n || ed.V < 0 || ed.V >= n {
			return nil, fmt.Errorf("graph: edit %d: endpoint out of range [0,%d): (%d,%d)", i, n, ed.U, ed.V)
		}
		if ed.U == ed.V {
			return nil, fmt.Errorf("graph: edit %d: self-loop at node %d", i, ed.U)
		}
		key := Edge{U: ed.U, V: ed.V}.Canon()
		present, ok := touched[key]
		if !ok {
			present = g.HasEdge(key.U, key.V)
		}
		switch ed.Op {
		case EditAdd:
			if present {
				return nil, fmt.Errorf("graph: edit %d: add of present edge (%d,%d)", i, key.U, key.V)
			}
		case EditRemove:
			if !present {
				return nil, fmt.Errorf("graph: edit %d: remove of absent edge (%d,%d)", i, key.U, key.V)
			}
		default:
			return nil, fmt.Errorf("graph: edit %d: unknown op %d", i, ed.Op)
		}
		touched[key] = ed.Op == EditAdd
	}
	var added, removed []Edge
	for e, present := range touched {
		switch was := g.HasEdge(e.U, e.V); {
		case present && !was:
			added = append(added, e)
		case !present && was:
			removed = append(removed, e)
		}
	}
	// g's edges (sorted) merged against the sorted removals, then the
	// additions: New sorts each node's neighbours, so the order of the edge
	// list does not change the graph.
	slices.SortFunc(removed, func(a, b Edge) int { return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V)) })
	edges := g.Edges()
	kept := edges[:0]
	for _, e := range edges {
		if len(removed) > 0 && e == removed[0] {
			removed = removed[1:]
			continue
		}
		kept = append(kept, e)
	}
	return New(n, append(kept, added...))
}

// ReadEditStream parses a textual edit stream: one edit per line as
// "add u v" or "del u v" (non-negative decimal dense node ids), with blank
// lines separating batches. Lines starting with '#' are comments.
// Consecutive blank lines collapse (they do not produce empty batches), but
// a batch containing the single word "noop" on a line is kept as an
// explicit empty batch — the probe the byte-identity contract of the
// incremental mode is pinned with.
func ReadEditStream(r io.Reader) ([][]Edit, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	var batches [][]Edit
	var cur []Edit
	open := false // current batch has seen at least one directive
	flush := func() {
		if open {
			batches = append(batches, cur)
			cur = nil
			open = false
		}
	}
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		fields := splitFields(text)
		if len(fields) == 0 {
			flush()
			continue
		}
		if fields[0][0] == '#' {
			continue
		}
		if len(fields) == 1 && fields[0] == "noop" {
			open = true
			continue
		}
		if len(fields) != 3 {
			return nil, fmt.Errorf("edit stream line %d: want \"add|del u v\", got %q", line, text)
		}
		var op EditOp
		switch fields[0] {
		case "add":
			op = EditAdd
		case "del", "remove", "rm":
			op = EditRemove
		default:
			return nil, fmt.Errorf("edit stream line %d: unknown op %q", line, fields[0])
		}
		var ids [2]int
		for k, field := range fields[1:] {
			id, err := strconv.Atoi(field)
			if err != nil || id < 0 {
				return nil, fmt.Errorf("edit stream line %d: bad node id %q", line, field)
			}
			ids[k] = id
		}
		cur = append(cur, Edit{Op: op, U: ids[0], V: ids[1]})
		open = true
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	flush()
	return batches, nil
}

func splitFields(s string) []string { return strings.Fields(s) }

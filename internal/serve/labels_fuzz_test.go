package serve

import (
	"strings"
	"testing"

	"graphalign/internal/graph"
)

// FuzzResolveEditLabels drives the label resolution of alignd's session
// edits, followed by the edit-stream parser, with arbitrary text and label
// sets. Neither may panic; resolution never adds or removes a line, so batch
// boundaries survive it; with no labels the text passes through unchanged;
// and every edit the parser accepts names two non-negative node ids.
func FuzzResolveEditLabels(f *testing.F) {
	seeds := [][2]string{
		{"add a b\ndel b c\n\nnoop\n", "a b c"},
		{"# note\nadd 5 b\ndel 0 2\n\nnoop\nadd b\n", "5 b 0"},
		{"add 0 1\n\ndel 1 2\n", ""},
		{"add nosuch v5\n", "v5"},
		{"add a a\r\n\r\ndel a -1\r\n", "a -1"},
		{"#add a b\n  add\ta\tb  \n", "a b"},
		{"add 99999999999999999999 x\n", "x"},
		{"", "a"},
	}
	for _, s := range seeds {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, text, labelText string) {
		// Labels come from an uploaded edge list: whitespace-free tokens,
		// interned once each.
		var labels []string
		seen := map[string]bool{}
		for _, l := range strings.Fields(labelText) {
			if !seen[l] {
				seen[l] = true
				labels = append(labels, l)
			}
		}
		out := resolveEditLabels(text, labels)
		if len(labels) == 0 && out != text {
			t.Fatalf("no labels: %q rewritten to %q", text, out)
		}
		if got, want := strings.Count(out, "\n"), strings.Count(text, "\n"); got != want {
			t.Fatalf("resolution changed the line count from %d to %d", want, got)
		}
		batches, err := graph.ReadEditStream(strings.NewReader(out))
		if err != nil {
			return
		}
		for bi, batch := range batches {
			for ei, e := range batch {
				if e.U < 0 || e.V < 0 {
					t.Fatalf("batch %d edit %d: negative node id in %+v", bi, ei, e)
				}
			}
		}
	})
}

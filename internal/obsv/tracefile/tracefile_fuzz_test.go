package tracefile

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"graphalign/internal/obsv"
)

// realTrace records a trace through the actual obsv tracer: a trace_meta
// line, two interleaved runs on child tracers, nested phases with fields,
// span events and a progress line.
func realTrace(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	ws := obsv.NewWriterSink(&buf)
	root := obsv.New(ws).SetTraceID("fuzz")
	root.EmitTraceMeta(map[string]any{"seed": 7, "cmd": "alignbench"})
	a := root.ChildTrace("job-a").StartRun("REGAL", map[string]any{"assign": "JV", "n_src": 40})
	b := root.ChildTrace("job-b").StartRun("NSD", map[string]any{"assign": "NN"})
	sim := a.Phase("similarity")
	embed := sim.Phase("embed")
	embed.Set("dims", 121)
	embed.End()
	bsim := b.Phase("similarity")
	sim.End()
	root.Progress("halfway")
	asg := a.Phase("assign")
	asg.Event("assign_probe", map[string]any{"topk": 16})
	asg.End()
	bsim.End()
	a.End()
	b.Phase("assign").End()
	b.End()
	if err := ws.Err(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// analyze runs every read-side analysis over a parsed trace; none may panic.
func analyze(t *testing.T, tr *Trace) {
	t.Helper()
	Summarize(tr)
	for _, r := range tr.Runs {
		PathOf(r)
	}
	if err := WriteFolded(io.Discard, tr); err != nil {
		t.Fatalf("WriteFolded: %v", err)
	}
}

// FuzzTraceRead drives the trace parser and its analyses with arbitrary
// bytes, which must never panic Read, Summarize, PathOf or WriteFolded. It
// also cuts a real tracer's output at a fuzzer-chosen offset, the file a
// process killed mid-write leaves behind: that prefix must parse, with at
// most one torn line and no more runs than the whole trace — the torn-tail
// contract alignstat relies on.
func FuzzTraceRead(f *testing.F) {
	full := realTrace(f)
	whole, err := Read(bytes.NewReader(full), "f")
	if err != nil {
		f.Fatal(err)
	}
	seeds := []string{
		"",
		string(full),
		string(full[:len(full)/2]),
		"{\n",                         // a lone torn line
		"{\n{\"type\":\"phase\"}\n",   // malformed interior line: an error
		"\n\n  \n",                    // blank lines only
		`{"type":"run_end","span":3}`, // run_end without its start
		`{"type":"phase","span":2,"parent":2}` + "\n" + `{"type":"phase","span":4,"parent":5}` + "\n" + `{"type":"phase","span":5,"parent":4}`,
		`{"type":"run_start","name":"a;b c","span":1,"run":1}` + "\n" + `{"type":"run_end","span":1,"dur_ns":-5}`,
		`{"type":"trace_meta","fields":null}` + "\n" + `{"type":"phase","span":1,"fields":{"x":[1,{}]}}`,
		strings.Repeat(`{"type":"run_start","span":9}`+"\n", 20),
	}
	for i, s := range seeds {
		f.Add([]byte(s), uint(i*37))
	}
	f.Fuzz(func(t *testing.T, data []byte, cut uint) {
		if tr, err := Read(bytes.NewReader(data), "fuzz"); err == nil {
			analyze(t, tr)
		}

		prefix := full[:cut%uint(len(full)+1)]
		tr, err := Read(bytes.NewReader(prefix), "f")
		if err != nil {
			t.Fatalf("trace cut at %d bytes: %v", len(prefix), err)
		}
		if tr.TornTail > 1 {
			t.Fatalf("trace cut at %d bytes: TornTail = %d, want <= 1", len(prefix), tr.TornTail)
		}
		if len(tr.Runs) > len(whole.Runs) {
			t.Fatalf("trace cut at %d bytes: %d runs, more than the whole trace's %d", len(prefix), len(tr.Runs), len(whole.Runs))
		}
		analyze(t, tr)
	})
}

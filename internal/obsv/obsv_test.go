package obsv

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// collectSink retains every event for assertions.
type collectSink struct {
	mu     sync.Mutex
	events []Event
}

func (c *collectSink) Event(e Event) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

func (c *collectSink) byType(typ string) []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []Event
	for _, e := range c.events {
		if e.Type == typ {
			out = append(out, e)
		}
	}
	return out
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Emit("x", "y", nil)
	tr.Progress("msg")
	tr.Gauge("g", 1)
	tr.EmitMetrics()
	tr.AddSink(ProgressFunc(func(string) {}))
	tr.SetRegistry(NewRegistry())
	run := tr.StartRun("A", nil)
	if run != nil {
		t.Fatal("nil tracer must hand out nil spans")
	}
	sp := run.Phase("inner")
	sp.Set("k", 1)
	sp.Event("tick", nil)
	sp.End()
	run.End()
	if got := tr.Registry(); got != nil {
		t.Fatalf("nil tracer registry = %v, want nil", got)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	ws := NewWriterSink(&buf)
	tr := New(ws)
	run := tr.StartRun("GRASP", map[string]any{"assign": "JV", "n_src": 10})
	sp := run.Phase("similarity")
	sp.Set("k", 20)
	sp.End()
	run.End()
	tr.Progress("halfway")
	if err := ws.Err(); err != nil {
		t.Fatal(err)
	}

	var events []Event
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", sc.Text(), err)
		}
		events = append(events, e)
	}
	if len(events) != 4 {
		t.Fatalf("got %d events, want 4", len(events))
	}
	if events[0].Type != "run_start" || events[0].Name != "GRASP" {
		t.Errorf("first event = %+v, want run_start GRASP", events[0])
	}
	if events[1].Type != "phase" || events[1].Name != "similarity" {
		t.Errorf("second event = %+v, want phase similarity", events[1])
	}
	if events[1].Parent != events[0].Span {
		t.Errorf("phase parent = %d, want run span %d", events[1].Parent, events[0].Span)
	}
	if got := events[1].Fields["k"]; got != float64(20) {
		t.Errorf("phase field k = %v, want 20", got)
	}
	if events[2].Type != "run_end" || events[2].DurNS <= 0 {
		t.Errorf("third event = %+v, want run_end with positive duration", events[2])
	}
	if events[3].Type != "progress" || events[3].Msg != "halfway" {
		t.Errorf("fourth event = %+v, want progress", events[3])
	}
	for _, e := range events {
		if e.T == 0 {
			t.Errorf("event %q missing timestamp", e.Type)
		}
	}
}

func TestRunAndTraceIDsOnEvents(t *testing.T) {
	sink := &collectSink{}
	tr := New(sink).SetTraceID("trace-abc")

	// Two interleaved runs: every event under a run must carry that run's
	// span id so consumers can separate them.
	runA := tr.StartRun("NSD", nil)
	runB := tr.StartRun("GRASP", nil)
	spA := runA.Phase("similarity")
	spB := runB.Phase("similarity")
	inner := spA.Phase("lanczos")
	inner.Event("tick", nil)
	inner.End()
	spA.End()
	spB.End()
	runB.End()
	runA.End()
	tr.Progress("done")

	starts := sink.byType("run_start")
	if len(starts) != 2 {
		t.Fatalf("run_start events = %d, want 2", len(starts))
	}
	idOf := map[string]uint64{}
	for _, e := range starts {
		if e.Run != e.Span {
			t.Errorf("run_start %s: run id %d != span id %d", e.Name, e.Run, e.Span)
		}
		idOf[e.Name] = e.Run
	}
	wantRun := map[uint64]string{idOf["NSD"]: "NSD", idOf["GRASP"]: "GRASP"}
	byRun := map[string][]string{}
	sink.mu.Lock()
	for _, e := range sink.events {
		if e.Trace != "trace-abc" {
			t.Errorf("event %q trace = %q, want trace-abc", e.Type, e.Trace)
		}
		if e.Type == "phase" || e.Type == "tick" {
			if e.Run == 0 {
				t.Errorf("event %q %q missing run id", e.Type, e.Name)
				continue
			}
			algo := wantRun[e.Run]
			byRun[algo] = append(byRun[algo], e.Name)
		}
	}
	sink.mu.Unlock()
	// The nested lanczos phase and its tick must land under NSD's run, not
	// GRASP's, even though GRASP's span was opened in between.
	found := false
	for _, name := range byRun["NSD"] {
		if name == "lanczos" {
			found = true
		}
	}
	if !found {
		t.Errorf("nested phase not attributed to its run: NSD saw %v", byRun["NSD"])
	}
	for _, name := range byRun["GRASP"] {
		if name == "lanczos" {
			t.Errorf("nested NSD phase leaked into GRASP's run")
		}
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	sink := &collectSink{}
	tr := New(sink)
	run := tr.StartRun("NSD", nil)
	sp := run.Phase("phase1")
	sp.End()
	sp.End()
	run.End()
	run.End()
	if got := len(sink.byType("phase")); got != 1 {
		t.Fatalf("double End emitted %d phase events, want 1", got)
	}
	if got := len(sink.byType("run_end")); got != 1 {
		t.Fatalf("double End emitted %d run_end events, want 1", got)
	}
}

func TestSpanEndObservesRegistry(t *testing.T) {
	reg := NewRegistry()
	tr := New().SetRegistry(reg)
	run := tr.StartRun("NSD", nil)
	run.Phase("assign").End()
	run.End()
	if n := reg.Histogram("run_seconds", DurationBuckets()).Snapshot().Count; n != 1 {
		t.Errorf("run_seconds count = %d, want 1", n)
	}
	if n := reg.Histogram("phase_seconds.assign", DurationBuckets()).Snapshot().Count; n != 1 {
		t.Errorf("phase_seconds.assign count = %d, want 1", n)
	}
}

func TestProgressFuncFiltersTypes(t *testing.T) {
	var lines []string
	tr := New(ProgressFunc(func(msg string) { lines = append(lines, msg) }))
	tr.Progress("one")
	tr.Emit("cell_done", "x", nil)
	tr.Progress("two")
	if strings.Join(lines, ",") != "one,two" {
		t.Fatalf("progress sink saw %v, want only progress messages", lines)
	}
}

func TestConcurrentSpans(t *testing.T) {
	sink := &collectSink{}
	tr := New(sink).SetRegistry(NewRegistry())
	var wg sync.WaitGroup
	const workers = 8
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				run := tr.StartRun("A", nil)
				sp := run.Phase("p")
				sp.Set("i", i)
				sp.End()
				tr.Gauge("g", float64(i))
				run.End()
			}
		}()
	}
	wg.Wait()
	if got := len(sink.byType("run_end")); got != workers*50 {
		t.Errorf("run_end events = %d, want %d", got, workers*50)
	}
	// Span ids must be unique.
	seen := make(map[uint64]bool)
	for _, e := range sink.byType("run_start") {
		if seen[e.Span] {
			t.Fatalf("duplicate span id %d", e.Span)
		}
		seen[e.Span] = true
	}
}

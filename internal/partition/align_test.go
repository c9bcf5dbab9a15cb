package partition

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"graphalign/internal/algo"
	"graphalign/internal/algo/nsd"
	"graphalign/internal/assign"
	"graphalign/internal/gen"
	"graphalign/internal/graph"
	"graphalign/internal/matrix"
	"graphalign/internal/obsv"
)

func nsdFactory() (algo.Aligner, error) { return nsd.New(), nil }

func testGraphs(t *testing.T, n1, n2 int) (*graph.Graph, *graph.Graph) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	g1 := gen.PowerlawCluster(n1, 3, 0.3, rng)
	g2 := gen.PowerlawCluster(n2, 3, 0.3, rng)
	return g1, g2
}

func TestAlignProducesValidMapping(t *testing.T) {
	g1, g2 := testGraphs(t, 150, 180)
	mapping, st, err := Align(context.Background(), nsdFactory, g1, g2, assign.JonkerVolgenant,
		Options{K: 4, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	checkValidPartialInjection(t, mapping, g1.N(), g2.N())
	if st.Shards != 4 {
		t.Errorf("Shards=%d, want 4", st.Shards)
	}
	matched := 0
	for _, v := range mapping {
		if v >= 0 {
			matched++
		}
	}
	if matched < g1.N()/2 {
		t.Errorf("only %d of %d source nodes matched", matched, g1.N())
	}
}

// TestAlignDeterministicAcrossWorkers pins the contract the package doc
// promises: the stitched mapping is identical for any worker count. Run
// under -race this also verifies the disjoint-slot write discipline of the
// shard fan-out and the refinement scorer.
func TestAlignDeterministicAcrossWorkers(t *testing.T) {
	g1, g2 := testGraphs(t, 150, 180)
	var first []int
	for _, workers := range []int{1, 2, 8} {
		mapping, _, err := Align(context.Background(), nsdFactory, g1, g2, assign.JonkerVolgenant,
			Options{K: 5, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if first == nil {
			first = mapping
			continue
		}
		for u := range first {
			if mapping[u] != first[u] {
				t.Fatalf("workers=%d: mapping[%d]=%d differs from workers=1 value %d",
					workers, u, mapping[u], first[u])
			}
		}
	}
}

func TestAlignEmptyAndErrors(t *testing.T) {
	g1, g2 := testGraphs(t, 30, 40)
	if _, _, err := Align(context.Background(), nil, g1, g2, assign.JonkerVolgenant, Options{K: 2}); err == nil {
		t.Error("nil factory: want error")
	}
	if _, _, err := Align(context.Background(), nsdFactory, g2, g1, assign.JonkerVolgenant, Options{K: 2}); err == nil {
		t.Error("src larger than dst: want error")
	}
	empty, err := graph.New(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	mapping, _, err := Align(context.Background(), nsdFactory, empty, g2, assign.JonkerVolgenant, Options{K: 2})
	if err != nil || len(mapping) != 0 {
		t.Errorf("empty src: mapping=%v err=%v", mapping, err)
	}
	wantErr := errors.New("factory down")
	_, _, err = Align(context.Background(), func() (algo.Aligner, error) { return nil, wantErr }, g1, g2,
		assign.JonkerVolgenant, Options{K: 2})
	if !errors.Is(err, wantErr) {
		t.Errorf("factory error not propagated: %v", err)
	}
}

// panicAligner blows up inside Similarity — the stand-in for a buggy inner
// algorithm whose crash must fail the run, not the process.
type panicAligner struct{}

func (panicAligner) Name() string { return "panic" }
func (panicAligner) Similarity(_ context.Context, src, dst *graph.Graph) (*matrix.Dense, error) {
	panic("kaboom")
}
func (panicAligner) DefaultAssignment() assign.Method { return assign.JonkerVolgenant }

func TestAlignShardPanicIsolated(t *testing.T) {
	g1, g2 := testGraphs(t, 40, 50)
	_, _, err := Align(context.Background(), func() (algo.Aligner, error) { return panicAligner{}, nil },
		g1, g2, assign.JonkerVolgenant, Options{K: 3, Workers: 2})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("want recovered panic error, got %v", err)
	}
	if !strings.Contains(err.Error(), "shard 0/") {
		t.Errorf("first failing shard (by index) should win: %v", err)
	}
}

// slowAligner spins until its context is cancelled — the stand-in for a
// shard that outlives its run.
type slowAligner struct{}

func (slowAligner) Name() string { return "slow" }
func (slowAligner) Similarity(ctx context.Context, src, dst *graph.Graph) (*matrix.Dense, error) {
	for {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}
func (slowAligner) DefaultAssignment() assign.Method { return assign.JonkerVolgenant }

func TestAlignCancellation(t *testing.T) {
	g1, g2 := testGraphs(t, 40, 50)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := Align(ctx, func() (algo.Aligner, error) { return slowAligner{}, nil },
		g1, g2, assign.JonkerVolgenant, Options{K: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestAlignSparseShards exercises the TopK composition: per-shard sparse
// assignment must still produce a valid, well-matched mapping.
func TestAlignSparseShards(t *testing.T) {
	g1, g2 := testGraphs(t, 150, 180)
	mapping, _, err := Align(context.Background(), nsdFactory, g1, g2, assign.JonkerVolgenant,
		Options{K: 4, Workers: 2, TopK: 8})
	if err != nil {
		t.Fatal(err)
	}
	checkValidPartialInjection(t, mapping, g1.N(), g2.N())
}

// TestAlignObservability asserts the metric and per-shard trace plumbing:
// partition_* instruments are registered and shard_start/shard_done events
// flow through the tracer's sinks with one pair per shard.
func TestAlignObservability(t *testing.T) {
	g1, g2 := testGraphs(t, 120, 140)
	reg := obsv.NewRegistry()
	sink := &captureSink{}
	tr := obsv.New(sink).SetTraceID("test-root").SetRegistry(reg)
	_, st, err := Align(context.Background(), nsdFactory, g1, g2, assign.JonkerVolgenant,
		Options{K: 3, Workers: 1, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	starts, dones := 0, 0
	for _, e := range sink.events {
		switch e.Type {
		case "shard_start":
			starts++
			if !strings.HasPrefix(e.Trace, "test-root/shard-") {
				t.Errorf("shard event trace id %q lacks parent prefix", e.Trace)
			}
		case "shard_done":
			dones++
		}
	}
	if starts != st.Shards || dones != st.Shards {
		t.Errorf("got %d shard_start / %d shard_done events for %d shards", starts, dones, st.Shards)
	}
	counters, _ := reg.Snapshot()["counters"].(map[string]int64)
	if counters["partition_runs_total"] != 1 {
		t.Errorf("partition_runs_total=%d, want 1", counters["partition_runs_total"])
	}
}

// TestAlignTracesShardPhases: every shard of a traced sharded run carries
// its own run span, under the shard's trace id, holding the similarity
// phase and the assign phase annotated with the sparse pipeline's topk,
// auction_rounds and fallback attributes — and tracing leaves the mapping
// unchanged.
func TestAlignTracesShardPhases(t *testing.T) {
	g1, g2 := testGraphs(t, 120, 140)
	opts := Options{K: 3, Workers: 2, TopK: 8}
	plain, _, err := Align(context.Background(), nsdFactory, g1, g2, assign.JonkerVolgenant, opts)
	if err != nil {
		t.Fatal(err)
	}
	sink := &captureSink{}
	opts.Tracer = obsv.New(sink).SetTraceID("root")
	traced, st, err := Align(context.Background(), nsdFactory, g1, g2, assign.JonkerVolgenant, opts)
	if err != nil {
		t.Fatal(err)
	}
	for u := range plain {
		if traced[u] != plain[u] {
			t.Fatalf("tracing changed mapping[%d]: %d vs %d", u, traced[u], plain[u])
		}
	}
	phases := map[string]map[string]obsv.Event{} // trace id -> phase name -> event
	for _, e := range sink.events {
		if e.Type == "phase" && strings.HasPrefix(e.Trace, "root/shard-") {
			if phases[e.Trace] == nil {
				phases[e.Trace] = map[string]obsv.Event{}
			}
			phases[e.Trace][e.Name] = e
		}
	}
	for i := 0; i < st.Shards; i++ {
		id := fmt.Sprintf("root/shard-%03d", i)
		if _, ok := phases[id]["similarity"]; !ok {
			t.Errorf("%s: no similarity phase (have %v)", id, phases[id])
		}
		asg, ok := phases[id]["assign"]
		if !ok {
			t.Errorf("%s: no assign phase", id)
			continue
		}
		for _, key := range []string{"topk", "auction_rounds", "fallback"} {
			if _, ok := asg.Fields[key]; !ok {
				t.Errorf("%s: assign phase lacks %q (fields %v)", id, key, asg.Fields)
			}
		}
	}
}

// captureSink retains every event for assertions. The tracer serializes
// Event calls, so no locking is needed.
type captureSink struct{ events []obsv.Event }

func (s *captureSink) Event(e obsv.Event) { s.events = append(s.events, e) }

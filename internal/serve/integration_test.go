package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

// These are the daemon-level partition integration tests: a partitioned job
// driven end to end over real TCP sockets (httptest.NewServer binds a
// loopback listener), exercising the full stack — HTTP submit, queue, worker,
// core runner, partition-align-stitch fan-out, per-shard child traces into
// the job's progress stream, and Prometheus exposition of the partition_*
// series.

type wireEvent struct {
	Type   string         `json:"type"`
	Name   string         `json:"name"`
	Trace  string         `json:"trace"`
	Fields map[string]any `json:"fields"`
}

// TestHTTPPartitionedJobStreamsShards submits a partitioned job against a
// real aligner and tails /events while it runs: the stream must carry one
// shard_start / shard_done pair per shard, each stamped with the job-scoped
// shard trace id, and the job must finish with a full-length mapping. The
// partition_* metrics must then be visible on /metrics.
func TestHTTPPartitionedJobStreamsShards(t *testing.T) {
	const parts = 4
	_, ts := newAPI(t, Options{Workers: 1, Factory: realFactoryForCache(t)}, HTTPOptions{}, nil)

	n := 32
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		submitBody(t, SubmitRequest{Algo: "NSD", Partitions: parts, Src: edgeListText(n), Dst: edgeListText(n)}))
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, body)
	}
	v := decodeView(t, body)
	if v.Parts != parts {
		t.Fatalf("submitted view reports partitions=%d, want %d", v.Parts, parts)
	}

	// Attach the follow stream before the job finishes is not guaranteed at
	// Workers=1 — the stream replays the full log either way, so the
	// assertions below hold regardless of timing.
	eresp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer eresp.Body.Close()
	var events []wireEvent
	sc := bufio.NewScanner(eresp.Body)
	streamDone := make(chan struct{})
	go func() {
		defer close(streamDone)
		for sc.Scan() {
			var e wireEvent
			if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
				t.Errorf("bad JSONL line %q: %v", sc.Text(), err)
				return
			}
			events = append(events, e)
		}
	}()
	select {
	case <-streamDone:
	case <-time.After(10 * time.Second):
		t.Fatal("event stream never terminated")
	}

	final := pollDone(t, ts, v.ID)
	if final.Status != StatusDone {
		t.Fatalf("partitioned job ended %s (%s)", final.Status, final.Error)
	}
	if final.Result == nil || len(final.Result.Mapping) != n {
		t.Fatalf("partitioned job result missing or short: %+v", final.Result)
	}

	starts, dones := 0, 0
	for _, e := range events {
		switch e.Type {
		case "shard_start", "shard_done":
			wantPrefix := v.ID + "/shard-"
			if !strings.HasPrefix(e.Trace, wantPrefix) {
				t.Errorf("shard event trace %q lacks job-scoped prefix %q", e.Trace, wantPrefix)
			}
			if e.Type == "shard_start" {
				starts++
			} else {
				dones++
			}
		}
	}
	if starts != parts || dones != parts {
		t.Fatalf("streamed %d shard_start / %d shard_done events, want %d each", starts, dones, parts)
	}
	last := events[len(events)-1]
	if last.Type != "job_status" || last.Name != string(StatusDone) {
		t.Fatalf("stream must end at the closing job_status, ended at %+v", last)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metricsText := string(readAll(t, mresp))
	for _, want := range []string{"graphalign_partition_runs_total 1", "graphalign_partition_shard_seconds", "graphalign_partition_shards"} {
		if !strings.Contains(metricsText, want) {
			t.Fatalf("/metrics missing %s after a partitioned job:\n%s", want, metricsText)
		}
	}
}

// TestHTTPPartitionedCancelNoLeaks cancels a partitioned job mid-shard: the
// inner aligners are blocked, so every shard is in flight when DELETE
// arrives. The job must terminate as cancelled — cooperatively, meaning the
// panic and timeout counters on /metrics stay at zero — and after shutdown
// the process must return to its pre-server goroutine count: no shard
// goroutine, worker, or event stream may leak.
func TestHTTPPartitionedCancelNoLeaks(t *testing.T) {
	http.DefaultClient.CloseIdleConnections()
	runtime.GC()
	baseline := runtime.NumGoroutine()

	blocks := map[string]chan struct{}{"slow": make(chan struct{})} // never released
	s, err := New(Options{Factory: testFactory(blocks), Workers: 1, JobWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler(HTTPOptions{}))

	// WorkersMax 2 (allowed by JobWorkers 2) pins the shard fan-out width:
	// on a single-CPU machine the default (one worker per CPU) would run the
	// shards sequentially, and the first blocked shard would keep the second
	// from ever starting.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		submitBody(t, SubmitRequest{Algo: "slow", Partitions: 2, WorkersMax: 2, Src: edgeListText(16), Dst: edgeListText(16)}))
	if err != nil {
		t.Fatal(err)
	}
	v := decodeView(t, readAll(t, resp))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}

	// Wait until both shards are provably in flight: their shard_start
	// events have reached the job's progress log.
	waitShardStarts(t, ts, v.ID, 2)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+v.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if readAll(t, dresp); dresp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel status %d, want 202", dresp.StatusCode)
	}
	final := pollDone(t, ts, v.ID)
	if final.Status != StatusCancelled || final.ErrorKind != ErrKindCancelled {
		t.Fatalf("mid-shard cancel: status %s kind %q (%s)", final.Status, final.ErrorKind, final.Error)
	}

	// Cooperative means the run was not torn down by a panic or reclassified
	// as a timeout — the dedicated counters on /metrics prove it.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metricsText := string(readAll(t, mresp))
	for _, want := range []string{
		"graphalign_serve_jobs_cancelled_total 1",
		"graphalign_serve_jobs_panic_total 0",
		"graphalign_serve_jobs_timeout_total 0",
	} {
		if !strings.Contains(metricsText, want) {
			t.Fatalf("/metrics after mid-shard cancel missing %q:\n%s", want, metricsText)
		}
	}

	ts.Close()
	ctx, cancel := testShutdownCtx(t)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	http.DefaultClient.CloseIdleConnections()

	// Goroutine-leak check: the count must settle back to the pre-server
	// baseline (small slack for runtime bookkeeping goroutines).
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		now := runtime.NumGoroutine()
		if now <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines %d > baseline %d after cancel+shutdown — leaked shard or stream goroutine:\n%s",
				now, baseline, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitShardStarts polls the snapshot events endpoint until want shard_start
// events are visible, proving the shards are in flight on the server.
func waitShardStarts(t *testing.T, ts *httptest.Server, id string, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events?follow=0")
		if err != nil {
			t.Fatal(err)
		}
		starts := 0
		sc := bufio.NewScanner(strings.NewReader(string(readAll(t, resp))))
		for sc.Scan() {
			var e wireEvent
			if json.Unmarshal(sc.Bytes(), &e) == nil && e.Type == "shard_start" {
				starts++
			}
		}
		if starts >= want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reported %d shards in flight", id, want)
}

func testShutdownCtx(t *testing.T) (ctx context.Context, cancel context.CancelFunc) {
	t.Helper()
	return context.WithTimeout(context.Background(), 10*time.Second)
}

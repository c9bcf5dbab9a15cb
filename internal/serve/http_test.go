package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"graphalign/internal/obsv"
)

func edgeListText(n int) string {
	var b strings.Builder
	for i := 0; i < n-1; i++ {
		fmt.Fprintf(&b, "v%d v%d\n", i, i+1)
	}
	return b.String()
}

func submitBody(t *testing.T, req SubmitRequest) *bytes.Reader {
	t.Helper()
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(raw)
}

func decodeView(t *testing.T, body []byte) JobView {
	t.Helper()
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("decoding %q: %v", body, err)
	}
	return v
}

func newAPI(t *testing.T, opts Options, hopts HTTPOptions, blocks map[string]chan struct{}) (*Server, *httptest.Server) {
	t.Helper()
	s := newTestServer(t, opts, blocks)
	ts := httptest.NewServer(s.Handler(hopts))
	t.Cleanup(ts.Close)
	return s, ts
}

// TestHTTPJobLifecycle drives a full session over the wire: submit, poll to
// done, read the result, confirm 404 for unknown ids.
func TestHTTPJobLifecycle(t *testing.T) {
	_, ts := newAPI(t, Options{Workers: 1}, HTTPOptions{}, nil)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		submitBody(t, SubmitRequest{Algo: "ok", Src: edgeListText(6), Dst: edgeListText(6)}))
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, body)
	}
	loc := resp.Header.Get("Location")
	v := decodeView(t, body)
	if loc != "/v1/jobs/"+v.ID {
		t.Fatalf("Location %q does not match job id %q", loc, v.ID)
	}

	v = pollDone(t, ts, v.ID)
	if v.Status != StatusDone {
		t.Fatalf("job ended %s (%s)", v.Status, v.Error)
	}
	if v.Result == nil || len(v.Result.Mapping) != 6 {
		t.Fatalf("missing/short result: %+v", v.Result)
	}
	for i, m := range v.Result.Mapping {
		if m != i {
			t.Fatalf("identity fake must map %d to itself, got %d", i, m)
		}
	}

	if resp, err := http.Get(ts.URL + "/v1/jobs/nope"); err != nil {
		t.Fatal(err)
	} else if readAll(t, resp); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id status %d, want 404", resp.StatusCode)
	}
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func pollDone(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		v := decodeView(t, readAll(t, resp))
		if v.Status.Terminal() {
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return JobView{}
}

// TestHTTPQueueFull429 pins the admission contract on the wire: when the
// queue is full the API answers 429 with a positive integer Retry-After.
func TestHTTPQueueFull429(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	blocks := map[string]chan struct{}{"slow": release}
	s, ts := newAPI(t, Options{Workers: 1, QueueSize: 1}, HTTPOptions{}, blocks)

	submit := func(algo string) *http.Response {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
			submitBody(t, SubmitRequest{Algo: algo, Src: edgeListText(4), Dst: edgeListText(4)}))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	first := submit("slow")
	v := decodeView(t, readAll(t, first))
	j, err := s.Job(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, j, StatusRunning)
	if resp := submit("slow"); readAll(t, resp) == nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit status %d, want 202 (queued)", resp.StatusCode)
	}
	resp := submit("slow")
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity status %d (%s), want 429", resp.StatusCode, body)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want positive integer seconds", resp.Header.Get("Retry-After"))
	}
}

// TestHTTPCancel covers DELETE mid-run over the wire.
func TestHTTPCancel(t *testing.T) {
	blocks := map[string]chan struct{}{"slow": make(chan struct{})}
	s, ts := newAPI(t, Options{Workers: 1}, HTTPOptions{}, blocks)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		submitBody(t, SubmitRequest{Algo: "slow", Src: edgeListText(4), Dst: edgeListText(4)}))
	if err != nil {
		t.Fatal(err)
	}
	v := decodeView(t, readAll(t, resp))
	j, _ := s.Job(v.ID)
	waitStatus(t, j, StatusRunning)

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
		t.Fatalf("cancelled job view: status %s kind %q", final.Status, final.ErrorKind)
	}
}

// TestHTTPSubmitValidation: malformed bodies, unknown algorithms/methods,
// oversized uploads and node caps all answer 4xx without admitting a job.
func TestHTTPSubmitValidation(t *testing.T) {
	s, ts := newAPI(t, Options{Workers: 1}, HTTPOptions{MaxBodyBytes: 4 << 10, MaxNodes: 8}, nil)
	cases := []struct {
		name string
		body string
		want int
	}{
		{"bad json", "{", http.StatusBadRequest},
		{"unknown algo", mustJSON(t, SubmitRequest{Algo: "nope", Src: edgeListText(4), Dst: edgeListText(4)}), http.StatusBadRequest},
		{"unknown method", mustJSON(t, SubmitRequest{Algo: "ok", Method: "XX", Src: edgeListText(4), Dst: edgeListText(4)}), http.StatusBadRequest},
		{"empty src", mustJSON(t, SubmitRequest{Algo: "ok", Src: "", Dst: edgeListText(4)}), http.StatusBadRequest},
		{"src larger than dst", mustJSON(t, SubmitRequest{Algo: "ok", Src: edgeListText(6), Dst: edgeListText(4)}), http.StatusBadRequest},
		{"negative topk", mustJSON(t, SubmitRequest{Algo: "ok", TopK: -1, Src: edgeListText(4), Dst: edgeListText(4)}), http.StatusBadRequest},
		{"negative workers", mustJSON(t, SubmitRequest{Algo: "ok", WorkersMax: -1, Src: edgeListText(4), Dst: edgeListText(4)}), http.StatusBadRequest},
		{"node cap", mustJSON(t, SubmitRequest{Algo: "ok", Src: edgeListText(9), Dst: edgeListText(9)}), http.StatusBadRequest},
		{"oversized body", mustJSON(t, SubmitRequest{Algo: "ok", Src: edgeListText(300), Dst: edgeListText(300)}), http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		body := readAll(t, resp)
		if resp.StatusCode != tc.want {
			t.Fatalf("%s: status %d (%s), want %d", tc.name, resp.StatusCode, body, tc.want)
		}
	}
	if n := len(s.Jobs()); n != 0 {
		t.Fatalf("rejected submissions leaked %d jobs into the table", n)
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestHTTPEventsStream tails /events while a job runs: the stream is valid
// JSONL, events carry the job id as trace, and it terminates exactly at the
// closing job_status event.
func TestHTTPEventsStream(t *testing.T) {
	release := make(chan struct{})
	blocks := map[string]chan struct{}{"slow": release}
	s, ts := newAPI(t, Options{Workers: 1}, HTTPOptions{}, blocks)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		submitBody(t, SubmitRequest{Algo: "slow", Src: edgeListText(4), Dst: edgeListText(4)}))
	if err != nil {
		t.Fatal(err)
	}
	v := decodeView(t, readAll(t, resp))
	j, _ := s.Job(v.ID)
	waitStatus(t, j, StatusRunning)

	eresp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer eresp.Body.Close()
	if ct := eresp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type %q", ct)
	}
	// Release the aligner only after the stream is attached, so the test
	// proves live following (not just snapshot redelivery).
	close(release)

	type evt struct {
		Type  string `json:"type"`
		Name  string `json:"name"`
		Trace string `json:"trace"`
	}
	var events []evt
	sc := bufio.NewScanner(eresp.Body)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for sc.Scan() {
			var e evt
			if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
				t.Errorf("bad JSONL line %q: %v", sc.Text(), err)
				return
			}
			events = append(events, e)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("event stream never terminated")
	}
	if len(events) == 0 {
		t.Fatal("no events streamed")
	}
	last := events[len(events)-1]
	if last.Type != "job_status" || last.Name != string(StatusDone) {
		t.Fatalf("stream must end at the closing job_status, ended at %+v", last)
	}
	for _, e := range events {
		if e.Trace != v.ID {
			t.Fatalf("event %+v not stamped with job trace %q", e, v.ID)
		}
	}

	// Snapshot mode returns immediately even though nothing new will arrive.
	sresp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/events?follow=0")
	if err != nil {
		t.Fatal(err)
	}
	snap := readAll(t, sresp)
	if len(bytes.TrimSpace(snap)) == 0 {
		t.Fatal("snapshot mode returned no events")
	}
}

// TestHTTPHealthAndMetrics: /healthz flips to 503 on shutdown and /metrics
// serves the serve_* series in Prometheus text format.
func TestHTTPHealthAndMetrics(t *testing.T) {
	reg := obsv.NewRegistry()
	s, ts := newAPI(t, Options{Workers: 1, Registry: reg}, HTTPOptions{}, nil)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		submitBody(t, SubmitRequest{Algo: "ok", Src: edgeListText(4), Dst: edgeListText(4)}))
	if err != nil {
		t.Fatal(err)
	}
	v := decodeView(t, readAll(t, resp))
	pollDone(t, ts, v.ID)

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if readAll(t, hresp); hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", hresp.StatusCode)
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metricsText := string(readAll(t, mresp))
	for _, want := range []string{"serve_jobs_submitted_total", "serve_jobs_done_total", "serve_job_seconds"} {
		if !strings.Contains(metricsText, want) {
			t.Fatalf("/metrics missing %s:\n%s", want, metricsText)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	hresp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if readAll(t, hresp); hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after shutdown status %d, want 503", hresp.StatusCode)
	}
}

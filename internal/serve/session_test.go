package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"testing"

	"graphalign/internal/algo"
	"graphalign/internal/assign"
	"graphalign/internal/graph"
	"graphalign/internal/matrix"
)

// embAligner is an embedding-exposing fake ("emb"): each node embeds as
// (1+degree, 0.3·id), the same one-hop feature the incremental package's own
// tests use, so sessions built on it re-align cheaply and deterministically.
type embAligner struct{}

func (embAligner) Name() string                     { return "emb" }
func (embAligner) DefaultAssignment() assign.Method { return assign.JonkerVolgenant }

func embEmbed(g *graph.Graph) *matrix.Dense {
	m := matrix.NewDense(g.N(), 2)
	for u := 0; u < g.N(); u++ {
		m.Row(u)[0] = float64(1 + len(g.Neighbors(u)))
		m.Row(u)[1] = 0.3 * float64(u)
	}
	return m
}

func (embAligner) ScorerCtx(_ context.Context, src, dst *graph.Graph) (assign.Scorer, error) {
	return &assign.Embedding{
		Src:          embEmbed(src),
		Dst:          embEmbed(dst),
		SimFromDist2: func(d2 float64) float64 { return -d2 },
	}, nil
}

func (a embAligner) Similarity(ctx context.Context, src, dst *graph.Graph) (*matrix.Dense, error) {
	e, _ := a.ScorerCtx(ctx, src, dst)
	return e.Similarity(), nil
}

// sessionFactory serves "emb" plus everything the job test factory knows.
func sessionFactory() func(name string) (algo.Aligner, error) {
	base := testFactory(nil)
	return func(name string) (algo.Aligner, error) {
		if name == "emb" {
			return embAligner{}, nil
		}
		return base(name)
	}
}

func decodeSessionView(t *testing.T, body []byte) SessionView {
	t.Helper()
	var v SessionView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("decoding %q: %v", body, err)
	}
	return v
}

func postJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestHTTPJobResultPagination pins the offset/limit contract of
// GET /v1/jobs/{id} on the wire, including the out-of-range bounds.
func TestHTTPJobResultPagination(t *testing.T) {
	_, ts := newAPI(t, Options{Workers: 1}, HTTPOptions{}, nil)
	resp := postJSON(t, ts.URL+"/v1/jobs", SubmitRequest{Algo: "ok", Src: edgeListText(6), Dst: edgeListText(6)})
	v := decodeView(t, readAll(t, resp))
	v = pollDone(t, ts, v.ID)
	if v.Status != StatusDone {
		t.Fatalf("job ended %s (%s)", v.Status, v.Error)
	}
	if v.Result.MappingTotal != 6 || v.Result.MappingOffset != 0 || len(v.Result.Mapping) != 6 {
		t.Fatalf("unpaginated result wrong: %+v", v.Result)
	}

	get := func(query string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + query)
		if err != nil {
			t.Fatal(err)
		}
		return resp, readAll(t, resp)
	}

	// A middle page.
	resp2, body := get("?offset=2&limit=3")
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("page status %d: %s", resp2.StatusCode, body)
	}
	pv := decodeView(t, body)
	if pv.Result.MappingOffset != 2 || pv.Result.MappingTotal != 6 || len(pv.Result.Mapping) != 3 {
		t.Fatalf("page wrong: %+v", pv.Result)
	}
	for i, m := range pv.Result.Mapping {
		if m != 2+i {
			t.Fatalf("page entry %d = %d, want %d", i, m, 2+i)
		}
	}
	// A limit running past the end is truncated, not an error.
	resp2, body = get("?offset=4&limit=100")
	if pv := decodeView(t, body); resp2.StatusCode != http.StatusOK || len(pv.Result.Mapping) != 2 {
		t.Fatalf("tail page: status %d result %+v", resp2.StatusCode, pv.Result)
	}
	// An offset past the end clamps to an empty page that still reports the
	// total, so clients detect the end of iteration.
	resp2, body = get("?offset=100")
	if pv := decodeView(t, body); resp2.StatusCode != http.StatusOK ||
		len(pv.Result.Mapping) != 0 || pv.Result.MappingOffset != 6 || pv.Result.MappingTotal != 6 {
		t.Fatalf("past-end page: status %d result %+v", resp2.StatusCode, pv.Result)
	}
	// Negative or non-numeric parameters are a client error.
	for _, q := range []string{"?offset=-1", "?limit=-2", "?offset=abc", "?limit=1.5"} {
		if resp2, body = get(q); resp2.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d (%s), want 400", q, resp2.StatusCode, body)
		}
	}
}

// TestHTTPSessionLifecycle drives an incremental session over the wire:
// create, apply edit batches (including a noop probe), page the mapping,
// list, delete, 404 after.
func TestHTTPSessionLifecycle(t *testing.T) {
	_, ts := newAPI(t, Options{Workers: 1, Factory: sessionFactory()}, HTTPOptions{}, nil)
	n := 12
	resp := postJSON(t, ts.URL+"/v1/sessions", SessionRequest{Algo: "emb", Src: edgeListText(n), Dst: edgeListText(n)})
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d: %s", resp.StatusCode, body)
	}
	v := decodeSessionView(t, body)
	if loc := resp.Header.Get("Location"); loc != "/v1/sessions/"+v.ID {
		t.Fatalf("Location %q does not match session id %q", loc, v.ID)
	}
	if v.MappingTotal != n || len(v.Mapping) != n || v.Applies != 0 {
		t.Fatalf("created view wrong: %+v", v)
	}
	// Identical graphs with an id-tiebroken embedding cold-align to identity.
	for i, m := range v.Mapping {
		if m != i {
			t.Fatalf("cold mapping[%d] = %d, want identity", i, m)
		}
	}

	// Two batches: a real edit, then an explicit noop probe. Node ids are the
	// dense ids of the uploaded edge list.
	resp = postJSON(t, ts.URL+"/v1/sessions/"+v.ID+"/edits", EditsRequest{Edits: "add 0 5\n\nnoop\n"})
	body = readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("edits status %d: %s", resp.StatusCode, body)
	}
	var er EditsResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Applies != 2 || len(er.Stats) != 2 {
		t.Fatalf("edits response wrong: %+v", er)
	}
	if er.Stats[0].Edits != 1 || er.Stats[0].Noop {
		t.Fatalf("first batch stats wrong: %+v", er.Stats[0])
	}
	if !er.Stats[1].Noop || er.Stats[1].DirtyRows != 0 {
		t.Fatalf("noop batch stats wrong: %+v", er.Stats[1])
	}

	// Mapping pagination mirrors the jobs contract.
	resp, err := http.Get(ts.URL + "/v1/sessions/" + v.ID + "?offset=3&limit=4")
	if err != nil {
		t.Fatal(err)
	}
	pv := decodeSessionView(t, readAll(t, resp))
	if pv.MappingOffset != 3 || pv.MappingTotal != n || len(pv.Mapping) != 4 || pv.Applies != 2 {
		t.Fatalf("session page wrong: %+v", pv)
	}
	if resp, err = http.Get(ts.URL + "/v1/sessions/" + v.ID + "?offset=-1"); err != nil {
		t.Fatal(err)
	} else if readAll(t, resp); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative offset status %d, want 400", resp.StatusCode)
	}

	// Listing elides the mapping but keeps the totals.
	if resp, err = http.Get(ts.URL + "/v1/sessions"); err != nil {
		t.Fatal(err)
	}
	var list []SessionView
	if err := json.Unmarshal(readAll(t, resp), &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != v.ID || list[0].Mapping != nil || list[0].MappingTotal != n {
		t.Fatalf("session list wrong: %+v", list)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+v.ID, nil)
	if resp, err = http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else if readAll(t, resp); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status %d, want 204", resp.StatusCode)
	}
	if resp, err = http.Get(ts.URL + "/v1/sessions/" + v.ID); err != nil {
		t.Fatal(err)
	} else if readAll(t, resp); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get after delete status %d, want 404", resp.StatusCode)
	}
}

// TestHTTPSessionEditLabels: edit streams address nodes by the labels the
// uploaded edge list used, falling back to dense ids for unknown tokens;
// a token that is neither is a client error.
func TestHTTPSessionEditLabels(t *testing.T) {
	_, ts := newAPI(t, Options{Workers: 1, Factory: sessionFactory()}, HTTPOptions{}, nil)
	resp := postJSON(t, ts.URL+"/v1/sessions", SessionRequest{Algo: "emb", Src: edgeListText(12), Dst: edgeListText(12)})
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d: %s", resp.StatusCode, body)
	}
	v := decodeSessionView(t, body)

	// "v0"/"v5" are the uploaded labels of dense nodes 0 and 5; mixing a
	// label with a dense id in one line must work too.
	resp = postJSON(t, ts.URL+"/v1/sessions/"+v.ID+"/edits", EditsRequest{Edits: "add v0 v5\n\ndel v0 5\n"})
	body = readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("labeled edits status %d: %s", resp.StatusCode, body)
	}
	var er EditsResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Applies != 2 || er.Stats[0].Edits != 1 || er.Stats[1].Edits != 1 {
		t.Fatalf("labeled edits response wrong: %+v", er)
	}

	// A token that is neither a label nor an integer is a 400, not a 500.
	resp = postJSON(t, ts.URL+"/v1/sessions/"+v.ID+"/edits", EditsRequest{Edits: "add nosuch v5\n"})
	if body = readAll(t, resp); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown label status %d (%s), want 400", resp.StatusCode, body)
	}
}

// Numeric-looking labels win over dense ids — they name the node the
// uploaded edge list named — and comments/noop/malformed lines pass
// through for ReadEditStream to judge.
func TestResolveEditLabels(t *testing.T) {
	labels := []string{"5", "b", "0"}
	in := "# note\nadd 5 b\ndel 0 2\n\nnoop\nadd b\n"
	want := "# note\nadd 0 1\ndel 2 2\n\nnoop\nadd b\n"
	if got := resolveEditLabels(in, labels); got != want {
		t.Fatalf("resolveEditLabels:\n got %q\nwant %q", got, want)
	}
	if got := resolveEditLabels(in, nil); got != in {
		t.Fatalf("nil labels must pass through, got %q", got)
	}
}

// TestHTTPSessionTableBounds: the session table is bounded; a full table
// rejects with 429 until a slot frees up, and a dense-only algorithm or a
// negative col_tolerance is a client error.
func TestHTTPSessionTableBounds(t *testing.T) {
	s, ts := newAPI(t, Options{Workers: 1, Factory: sessionFactory(), MaxSessions: 1}, HTTPOptions{}, nil)
	mk := func() (*http.Response, []byte) {
		resp := postJSON(t, ts.URL+"/v1/sessions", SessionRequest{Algo: "emb", Src: edgeListText(8), Dst: edgeListText(8)})
		return resp, readAll(t, resp)
	}
	resp, body := mk()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("first create status %d: %s", resp.StatusCode, body)
	}
	first := decodeSessionView(t, body)
	if resp, body = mk(); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second create status %d (%s), want 429", resp.StatusCode, body)
	}
	if got := s.Registry().Counter("serve_sessions_rejected_total").Value(); got != 1 {
		t.Fatalf("serve_sessions_rejected_total = %d, want 1", got)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+first.ID, nil)
	if resp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else {
		readAll(t, resp)
	}
	if resp, body = mk(); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create after delete status %d: %s", resp.StatusCode, body)
	}
	if err := s.DeleteSession(decodeSessionView(t, body).ID); err != nil {
		t.Fatal(err)
	}

	// Dense-only algorithms cannot host sessions.
	resp = postJSON(t, ts.URL+"/v1/sessions", SessionRequest{Algo: "boom", Src: edgeListText(8), Dst: edgeListText(8)})
	if body = readAll(t, resp); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("dense-only create status %d (%s), want 400", resp.StatusCode, body)
	}
	// So is a negative col_tolerance, and the rejected creates left the one
	// slot free (a full table would answer 429).
	resp = postJSON(t, ts.URL+"/v1/sessions", SessionRequest{Algo: "emb", ColTolerance: -1, Src: edgeListText(8), Dst: edgeListText(8)})
	if body = readAll(t, resp); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("col_tolerance -1 create status %d (%s), want 400", resp.StatusCode, body)
	}
}

// TestHTTPWorkersBoundedByJobWorkers: a request's workers can never exceed
// the operator's per-job bound. A negative value (which the worker pool reads
// as one per CPU) is rejected with 400; a positive one is capped at
// JobWorkers, or at GOMAXPROCS when JobWorkers is 0; 0 takes JobWorkers. Jobs
// and sessions resolve it the same way.
func TestHTTPWorkersBoundedByJobWorkers(t *testing.T) {
	perCPU := runtime.GOMAXPROCS(0)
	for _, tc := range []struct{ jobWorkers, req, want int }{
		{2, 64, 2},
		{2, 1, 1},
		{2, 0, 2},
		{0, 0, 0},
		{0, perCPU + 7, perCPU},
	} {
		t.Run(fmt.Sprintf("job-workers=%d/workers=%d", tc.jobWorkers, tc.req), func(t *testing.T) {
			s, ts := newAPI(t, Options{Workers: 1, JobWorkers: tc.jobWorkers, Factory: sessionFactory()}, HTTPOptions{}, nil)
			resp := postJSON(t, ts.URL+"/v1/jobs", SubmitRequest{Algo: "ok", WorkersMax: tc.req, Src: edgeListText(8), Dst: edgeListText(8)})
			body := readAll(t, resp)
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit status %d: %s", resp.StatusCode, body)
			}
			j, err := s.Job(decodeView(t, body).ID)
			if err != nil {
				t.Fatal(err)
			}
			if j.Spec.Workers != tc.want {
				t.Fatalf("job workers = %d, want %d", j.Spec.Workers, tc.want)
			}
			resp = postJSON(t, ts.URL+"/v1/sessions", SessionRequest{Algo: "emb", Workers: tc.req, Src: edgeListText(8), Dst: edgeListText(8)})
			body = readAll(t, resp)
			if resp.StatusCode != http.StatusCreated {
				t.Fatalf("session create status %d: %s", resp.StatusCode, body)
			}
			h, err := s.Session(decodeSessionView(t, body).ID)
			if err != nil {
				t.Fatal(err)
			}
			if h.Spec.Workers != tc.want {
				t.Fatalf("session workers = %d, want %d", h.Spec.Workers, tc.want)
			}
		})
	}

	// Negative job workers are a row of TestHTTPSubmitValidation.
	s, ts := newAPI(t, Options{Workers: 1, JobWorkers: 2, Factory: sessionFactory()}, HTTPOptions{}, nil)
	resp := postJSON(t, ts.URL+"/v1/sessions", SessionRequest{Algo: "emb", Workers: -1, Src: edgeListText(8), Dst: edgeListText(8)})
	if body := readAll(t, resp); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative session workers: status %d (%s), want 400", resp.StatusCode, body)
	}
	if len(s.Sessions()) != 0 {
		t.Fatal("rejected session leaked into the session table")
	}
}

// TestMetricsPreRegistered: every incr_*, partition_* and serve_* series is
// visible on /metrics from the very first scrape, before any traffic.
func TestMetricsPreRegistered(t *testing.T) {
	_, ts := newAPI(t, Options{Workers: 1}, HTTPOptions{}, nil)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := string(readAll(t, resp))
	for _, name := range []string{
		"incr_sessions_total", "incr_applies_total", "incr_noop_total",
		"incr_cold_fallbacks_total",
		"incr_dirty_rows", "incr_dirty_cols", "incr_rebid_rounds",
		"incr_augmented_rows", "incr_rescan_rows",
		"partition_runs_total", "partition_shard_errors_total",
		"partition_rebid_moves_total", "partition_shards",
		"partition_boundary_nodes", "partition_refine_rounds",
		"partition_shard_seconds",
		"serve_sessions_created_total", "serve_sessions_rejected_total",
		"serve_session_edits_total", "serve_sessions_open",
		"serve_queue_depth", "serve_jobs_running",
		"serve_queue_wait_seconds", "serve_job_seconds",
	} {
		if !bytes.Contains([]byte(body), []byte(name)) {
			t.Errorf("metric %s absent from first /metrics scrape", name)
		}
	}
}

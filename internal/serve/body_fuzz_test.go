package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// fuzzHTTPOptions bound the fuzzed requests like a small daemon: graphs of
// at most 64 nodes and 64 edges, bodies of at most 4 KiB so the 413 path is
// reachable.
var fuzzHTTPOptions = HTTPOptions{MaxBodyBytes: 4 << 10, MaxNodes: 64, MaxEdges: 64}

// fuzzPost sends body to path on a fresh server with a one-slot queue and
// session table, shuts the server down, and returns the response status. It
// fails on a status outside what the two POST endpoints document, on a
// non-JSON response body, and on a server that does not stop.
func fuzzPost(t *testing.T, path string, body []byte) int {
	s, err := New(Options{Factory: sessionFactory(), QueueSize: 1, MaxSessions: 1, JobWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler(fuzzHTTPOptions).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown after %q: %v", body, err)
	}
	switch rec.Code {
	case http.StatusCreated, http.StatusAccepted, http.StatusBadRequest,
		http.StatusRequestEntityTooLarge, http.StatusTooManyRequests, http.StatusServiceUnavailable:
	default:
		t.Fatalf("POST %s %q: status %d (%s)", path, body, rec.Code, rec.Body.Bytes())
	}
	if !json.Valid(rec.Body.Bytes()) {
		t.Fatalf("POST %s %q: status %d with a non-JSON body %q", path, body, rec.Code, rec.Body.Bytes())
	}
	return rec.Code
}

// decodesWithin reports whether body is within the size cap and decodes
// into v the way the handlers decode it.
func decodesWithin(body []byte, v any) bool {
	return int64(len(body)) <= fuzzHTTPOptions.MaxBodyBytes &&
		json.NewDecoder(bytes.NewReader(body)).Decode(v) == nil
}

// FuzzSubmitBody drives POST /v1/jobs with arbitrary bodies. The handler
// must not panic, must answer 202, 400, 413, 429 or 503 with a JSON body,
// and must reject any negative numeric field with 400.
func FuzzSubmitBody(f *testing.F) {
	for _, s := range []string{
		`{"algo":"ok","src":"a b\nb c\n","dst":"a b\nb c\nc d\n"}`,
		`{"algo":"emb","src":"0 1\n1 2\n2 3\n","dst":"0 1\n1 2\n2 3\n3 4\n","partitions":2,"topk":2}`,
		`{"algo":"ok","method":"JV","timeout_ms":1,"workers":3,"src":"a b\n","dst":"a b\n"}`,
		`{"algo":"ok","topk":-1,"src":"a b\n","dst":"a b\n"}`,
		`{"algo":"ok","timeout_ms":-5,"src":"a b\n","dst":"a b\n"}`,
		`{"algo":"boom","src":"a b\n","dst":"a b\n"}`,
		`{"algo":"ok","method":"nosuch","src":"a b\n","dst":"a b\n"}`,
		`{"algo":"ok","src":"a b\nb c\nc d\n","dst":"a b\n"}`,
		`{"algo":"ok","src":"a\n","dst":"a b\n"}`,
		`{"algo":"ok","partitions":99999999999999999999}`,
		`{"algo":1}`,
		`[]`,
		``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		code := fuzzPost(t, "/v1/jobs", body)
		var req SubmitRequest
		if decodesWithin(body, &req) && (req.TopK < 0 || req.TimeoutMS < 0 || req.WorkersMax < 0 || req.Partitions < 0) &&
			code != http.StatusBadRequest {
			t.Fatalf("negative field in %q: status %d, want 400", body, code)
		}
	})
}

// FuzzSessionBody drives POST /v1/sessions, which cold-aligns before it
// answers, with arbitrary bodies. The handler must not panic, must answer
// 201, 400, 413, 429 or 503 with a JSON body, and must reject any negative
// numeric field with 400.
func FuzzSessionBody(f *testing.F) {
	for _, s := range []string{
		`{"algo":"emb","src":"a b\nb c\n","dst":"a b\nb c\nc d\n"}`,
		`{"algo":"emb","topk":2,"workers":2,"drift":0.3,"col_tolerance":0.1,"dirty_hops":1,"src":"0 1\n1 2\n","dst":"0 1\n1 2\n2 3\n"}`,
		`{"algo":"emb","topk":-1,"src":"a b\n","dst":"a b\n"}`,
		`{"algo":"emb","drift":-0.5,"src":"a b\n","dst":"a b\n"}`,
		`{"algo":"emb","col_tolerance":-1,"src":"a b\n","dst":"a b\n"}`,
		`{"algo":"emb","dirty_hops":-2,"src":"a b\n","dst":"a b\n"}`,
		`{"algo":"ok","src":"a b\n","dst":"a b\n"}`,
		`{"algo":"emb","topk":9223372036854775807,"src":"a b\n","dst":"a b\nb c\n"}`,
		`{"algo":"emb","src":"a b\nb c\nc d\n","dst":"a b\n"}`,
		`{"algo":"emb","drift":1e999}`,
		`{"src":5}`,
		``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		code := fuzzPost(t, "/v1/sessions", body)
		var req SessionRequest
		if decodesWithin(body, &req) &&
			(req.TopK < 0 || req.Workers < 0 || req.Drift < 0 || req.ColTolerance < 0 || req.DirtyHops < 0) &&
			code != http.StatusBadRequest {
			t.Fatalf("negative field in %q: status %d, want 400", body, code)
		}
	})
}

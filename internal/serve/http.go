package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"graphalign/internal/assign"
	"graphalign/internal/graph"
	"graphalign/internal/obsv"
)

// HTTPOptions bound what the API accepts per request.
type HTTPOptions struct {
	// MaxBodyBytes caps the request body (edge lists included); default 32 MiB.
	MaxBodyBytes int64
	// MaxNodes / MaxEdges cap each uploaded graph after parsing; 0 = no cap.
	MaxNodes int
	MaxEdges int
}

func (o HTTPOptions) withDefaults() HTTPOptions {
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 32 << 20
	}
	return o
}

// SubmitRequest is the JSON body of POST /v1/jobs. The graphs travel as
// whitespace-separated edge-list text, the same format every CLI in this
// repository reads; node labels are interned in order of first appearance,
// exactly like graph.ReadEdgeList, so a client parsing the same text gets
// the same dense ids.
type SubmitRequest struct {
	Algo       string `json:"algo"`
	Method     string `json:"method,omitempty"`
	TopK       int    `json:"topk,omitempty"`
	TimeoutMS  int64  `json:"timeout_ms,omitempty"`
	WorkersMax int    `json:"workers,omitempty"`
	// Partitions >= 2 runs the job through the partition-align-stitch
	// sharding layer; 0 (or 1) is the monolithic path.
	Partitions int    `json:"partitions,omitempty"`
	Src        string `json:"src"`
	Dst        string `json:"dst"`
}

// apiError is the JSON error envelope.
type apiError struct {
	Error string `json:"error"`
	Kind  string `json:"kind,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, kind, format string, args ...any) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...), Kind: kind})
}

// Handler builds the daemon's HTTP API:
//
//	POST   /v1/jobs              submit (202, or 429 + Retry-After when full)
//	GET    /v1/jobs              list tracked jobs
//	GET    /v1/jobs/{id}         job status / result (?offset=&limit= pages the mapping)
//	GET    /v1/jobs/{id}/events  progress stream (JSONL; ?follow=0 for snapshot)
//	DELETE /v1/jobs/{id}         cooperative cancel
//	POST   /v1/sessions          create an incremental session (cold-aligns synchronously)
//	GET    /v1/sessions          list live sessions
//	GET    /v1/sessions/{id}     session state (?offset=&limit= pages the mapping)
//	POST   /v1/sessions/{id}/edits apply edit batches, re-align, return per-batch stats
//	DELETE /v1/sessions/{id}     drop the session
//	GET    /healthz              liveness
//	GET    /metrics              Prometheus text exposition of the registry
func (s *Server) Handler(opts HTTPOptions) http.Handler {
	opts = opts.withDefaults()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		s.handleSubmit(w, r, opts)
	})
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("POST /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		s.handleSessionCreate(w, r, opts)
	})
	mux.HandleFunc("GET /v1/sessions", s.handleSessionList)
	mux.HandleFunc("GET /v1/sessions/{id}", s.handleSessionGet)
	mux.HandleFunc("POST /v1/sessions/{id}/edits", func(w http.ResponseWriter, r *http.Request) {
		s.handleSessionEdits(w, r, opts)
	})
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleSessionDelete)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		if s.closed.Load() {
			writeError(w, http.StatusServiceUnavailable, "", "shutting down")
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.Handle("GET /metrics", obsv.PromHandler(s.reg))
	return mux
}

// resolveEditLabels rewrites the node tokens of an edit stream against the
// session's dst-graph labels. Graphs travel as labeled edge-list text, so
// edits address nodes the same way; a token that is not a known label passes
// through untouched and is parsed as a dense id by graph.ReadEditStream,
// which keeps purely numeric streams valid. When a label itself looks
// numeric the label wins — it names the node the uploaded edge list named.
func resolveEditLabels(text string, labels []string) string {
	if len(labels) == 0 {
		return text
	}
	idx := make(map[string]int, len(labels))
	for i, l := range labels {
		idx[l] = i
	}
	lines := strings.Split(text, "\n")
	for i, line := range lines {
		fields := strings.Fields(line)
		if len(fields) == 3 && !strings.HasPrefix(fields[0], "#") {
			for k := 1; k <= 2; k++ {
				if id, ok := idx[fields[k]]; ok {
					fields[k] = strconv.Itoa(id)
				}
			}
			lines[i] = strings.Join(fields, " ")
		}
	}
	return strings.Join(lines, "\n")
}

// parseGraphLimited parses one uploaded edge list and enforces the per-graph
// caps. The byte budget is already enforced by MaxBytesReader on the body.
func parseGraphLimited(name, text string, opts HTTPOptions) (*graph.Graph, []string, error) {
	g, labels, err := graph.ReadEdgeList(strings.NewReader(text))
	if err != nil {
		return nil, nil, fmt.Errorf("%s graph: %w", name, err)
	}
	if g.N() == 0 {
		return nil, nil, fmt.Errorf("%s graph: empty edge list", name)
	}
	if opts.MaxNodes > 0 && g.N() > opts.MaxNodes {
		return nil, nil, fmt.Errorf("%s graph: %d nodes exceeds limit %d", name, g.N(), opts.MaxNodes)
	}
	if opts.MaxEdges > 0 && g.M() > opts.MaxEdges {
		return nil, nil, fmt.Errorf("%s graph: %d edges exceeds limit %d", name, g.M(), opts.MaxEdges)
	}
	return g, labels, nil
}

func parseMethod(m string) (assign.Method, error) {
	if m == "" {
		return "", nil
	}
	for _, known := range assign.Methods() {
		if m == string(known) {
			return known, nil
		}
	}
	return "", fmt.Errorf("unknown assignment method %q (have %v)", m, assign.Methods())
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request, opts HTTPOptions) {
	r.Body = http.MaxBytesReader(w, r.Body, opts.MaxBodyBytes)
	var req SubmitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "", "body exceeds %d bytes", tooBig.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "", "bad request body: %v", err)
		return
	}
	method, err := parseMethod(req.Method)
	if err != nil {
		writeError(w, http.StatusBadRequest, "", "%v", err)
		return
	}
	if req.TopK < 0 || req.TimeoutMS < 0 || req.Partitions < 0 || req.WorkersMax < 0 {
		writeError(w, http.StatusBadRequest, "", "topk, timeout_ms, partitions and workers must be non-negative")
		return
	}
	src, srcLabels, err := parseGraphLimited("src", req.Src, opts)
	if err != nil {
		writeError(w, http.StatusBadRequest, "", "%v", err)
		return
	}
	dst, dstLabels, err := parseGraphLimited("dst", req.Dst, opts)
	if err != nil {
		writeError(w, http.StatusBadRequest, "", "%v", err)
		return
	}

	job, err := s.Submit(src, dst, srcLabels, dstLabels, Spec{
		Algo:       req.Algo,
		Method:     method,
		TopK:       req.TopK,
		Timeout:    time.Duration(req.TimeoutMS) * time.Millisecond,
		Workers:    req.WorkersMax,
		Partitions: req.Partitions,
	})
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(int(s.RetryAfter().Seconds())))
		writeError(w, http.StatusTooManyRequests, "", "job queue full, retry later")
		return
	case errors.Is(err, ErrShuttingDown):
		writeError(w, http.StatusServiceUnavailable, "", "shutting down")
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, "", "%v", err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+job.ID)
	writeJSON(w, http.StatusAccepted, job.View())
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	jobs := s.Jobs()
	views := make([]JobView, len(jobs))
	for i, j := range jobs {
		views[i] = j.View()
	}
	writeJSON(w, http.StatusOK, views)
}

// parsePage reads the offset/limit pagination query parameters. Absent
// parameters are 0 (full result); negative or non-numeric values are an
// error the handlers map to 400.
func parsePage(r *http.Request) (offset, limit int, err error) {
	q := r.URL.Query()
	for _, p := range []struct {
		name string
		dst  *int
	}{{"offset", &offset}, {"limit", &limit}} {
		raw := q.Get(p.name)
		if raw == "" {
			continue
		}
		v, err := strconv.Atoi(raw)
		if err != nil || v < 0 {
			return 0, 0, fmt.Errorf("%s must be a non-negative integer, got %q", p.name, raw)
		}
		*p.dst = v
	}
	return offset, limit, nil
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, err := s.Job(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "", "no such job")
		return
	}
	offset, limit, err := parsePage(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "", "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, j.ViewPage(offset, limit))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "", "no such job")
		return
	}
	writeJSON(w, http.StatusAccepted, j.View())
}

// SessionRequest is the JSON body of POST /v1/sessions. Graphs travel as
// edge-list text like job submissions; the tuning knobs mirror
// incremental.Options (zero values take the package defaults).
type SessionRequest struct {
	Algo         string  `json:"algo"`
	TopK         int     `json:"topk,omitempty"`
	Workers      int     `json:"workers,omitempty"`
	Drift        float64 `json:"drift,omitempty"`
	ColTolerance float64 `json:"col_tolerance,omitempty"`
	DirtyHops    int     `json:"dirty_hops,omitempty"`
	Src          string  `json:"src"`
	Dst          string  `json:"dst"`
}

// EditsRequest is the JSON body of POST /v1/sessions/{id}/edits: an edit
// stream in the repository's text format — "add u v" / "del u v" lines,
// batches separated by blank lines, "noop" for an explicit empty batch.
// Nodes are addressed by the labels the session's dst edge list used
// (tokens that are not labels fall back to dense ids).
type EditsRequest struct {
	Edits string `json:"edits"`
}

// EditsResponse returns the per-batch re-alignment statistics.
type EditsResponse struct {
	Applies int          `json:"applies"`
	Stats   []BatchStats `json:"stats"`
}

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request, opts HTTPOptions) {
	r.Body = http.MaxBytesReader(w, r.Body, opts.MaxBodyBytes)
	var req SessionRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "", "body exceeds %d bytes", tooBig.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "", "bad request body: %v", err)
		return
	}
	if req.TopK < 0 || req.DirtyHops < 0 || req.Workers < 0 || req.Drift < 0 {
		writeError(w, http.StatusBadRequest, "", "topk, dirty_hops, workers and drift must be non-negative")
		return
	}
	src, srcLabels, err := parseGraphLimited("src", req.Src, opts)
	if err != nil {
		writeError(w, http.StatusBadRequest, "", "%v", err)
		return
	}
	dst, dstLabels, err := parseGraphLimited("dst", req.Dst, opts)
	if err != nil {
		writeError(w, http.StatusBadRequest, "", "%v", err)
		return
	}
	h, err := s.CreateSession(src, dst, srcLabels, dstLabels, SessionSpec{
		Algo:           req.Algo,
		TopK:           req.TopK,
		Workers:        req.Workers,
		DriftThreshold: req.Drift,
		ColTolerance:   req.ColTolerance,
		DirtyHops:      req.DirtyHops,
	})
	switch {
	case errors.Is(err, ErrSessionsFull):
		writeError(w, http.StatusTooManyRequests, "", "session table full (max %d), delete one first", s.opts.MaxSessions)
		return
	case errors.Is(err, ErrShuttingDown):
		writeError(w, http.StatusServiceUnavailable, "", "shutting down")
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, "", "%v", err)
		return
	}
	w.Header().Set("Location", "/v1/sessions/"+h.ID)
	writeJSON(w, http.StatusCreated, h.View(0, 0))
}

func (s *Server) handleSessionList(w http.ResponseWriter, _ *http.Request) {
	sessions := s.Sessions()
	views := make([]SessionView, len(sessions))
	for i, h := range sessions {
		// Listings elide the mapping (limit 1 page of zero would still set
		// totals); clients fetch pages from the per-session endpoint.
		v := h.View(0, 1)
		v.Mapping = nil
		views[i] = v
	}
	writeJSON(w, http.StatusOK, views)
}

func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	h, err := s.Session(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "", "no such session")
		return
	}
	offset, limit, err := parsePage(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "", "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, h.View(offset, limit))
}

func (s *Server) handleSessionEdits(w http.ResponseWriter, r *http.Request, opts HTTPOptions) {
	h, err := s.Session(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "", "no such session")
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, opts.MaxBodyBytes)
	var req EditsRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "", "body exceeds %d bytes", tooBig.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "", "bad request body: %v", err)
		return
	}
	batches, err := graph.ReadEditStream(strings.NewReader(resolveEditLabels(req.Edits, h.dstLabels)))
	if err != nil {
		writeError(w, http.StatusBadRequest, "", "edits: %v", err)
		return
	}
	stats, err := s.ApplyEdits(h, batches)
	if err != nil {
		if errors.Is(err, ErrShuttingDown) {
			writeError(w, http.StatusServiceUnavailable, "", "shutting down")
			return
		}
		writeError(w, http.StatusBadRequest, "", "%v", err)
		return
	}
	resp := EditsResponse{Applies: len(stats)}
	for _, st := range stats {
		resp.Stats = append(resp.Stats, batchStats(st))
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	if err := s.DeleteSession(r.PathValue("id")); err != nil {
		writeError(w, http.StatusNotFound, "", "no such session")
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleEvents streams the job's progress log as JSONL. By default the
// stream follows the job until it reaches a terminal state (the final
// job_status event is the end-of-stream marker); ?follow=0 returns the
// current snapshot and closes.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, err := s.Job(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "", "no such job")
		return
	}
	follow := r.URL.Query().Get("follow") != "0"
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	idx := 0
	for {
		events, changed := j.log.since(idx)
		for _, e := range events {
			if err := enc.Encode(e); err != nil {
				return
			}
		}
		idx += len(events)
		if flusher != nil && len(events) > 0 {
			flusher.Flush()
		}
		if !follow {
			return
		}
		// Drain-then-check: once the job is terminal, its finalize event has
		// already been appended, so an empty read after terminal means done.
		select {
		case <-j.Done():
			if events, _ := j.log.since(idx); len(events) == 0 {
				return
			}
			continue
		default:
		}
		select {
		case <-changed:
		case <-j.Done():
		case <-r.Context().Done():
			return
		}
	}
}

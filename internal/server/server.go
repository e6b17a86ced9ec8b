// Package server exposes the campaign job service (internal/jobs) over
// HTTP/JSON, with an NDJSON streaming endpoint for live campaign
// progress. It is the transport layer of cmd/faultserverd; all scheduling
// semantics (coalescing, content-addressed caching, cancellation) live in
// the jobs manager.
//
// API (all under /api/v1):
//
//	POST   /campaigns            submit a campaign (jobs.Request JSON);
//	                             201 for a fresh job, 200 when the
//	                             submission coalesced onto an in-flight
//	                             job or hit the result cache
//	GET    /campaigns            list jobs in submission order
//	GET    /campaigns/{id}       job status (result embedded when done)
//	GET    /campaigns/{id}/result canonical outcome JSON only — byte-
//	                             identical to `faultcampaign -json`
//	GET    /campaigns/{id}/stream NDJSON progress snapshots until the job
//	                             reaches a terminal state
//	DELETE /campaigns/{id}       cancel a queued or running job
//	GET    /workloads            bundled workload names
//	GET    /healthz              liveness plus scheduler counters
//
// Two probe endpoints live at the root (outside /api/v1), shaped for
// process supervisors and load balancers:
//
//	GET /healthz   liveness — 200 as soon as the process serves HTTP
//	               (same payload as /api/v1/healthz)
//	GET /readyz    readiness — 200 whenever it answers: faultserverd
//	               binds its port only after the journal is replayed,
//	               the result store opened and recovered jobs resubmitted
//
// When the manager runs a shard pool, four more endpoints serve the
// shard protocol to remote `faultserverd -worker` processes:
//
//	POST   /shards/lease           pull the next experiment-range shard
//	                               (200 with a jobs.ShardLease, or 204
//	                               when no campaign has pending shards)
//	POST   /shards/{lease}/progress report an in-flight tally; the reply
//	                               says whether to cancel the shard
//	POST   /shards/{lease}/complete submit the shard's outcomes
//	POST   /shards/{lease}/fail    release the shard after a local error
//
// Sharding is scheduling, not content: shard-executed campaigns return
// byte-identical results to unsharded ones.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/workloads"
)

// Server routes HTTP traffic onto a jobs.Manager.
type Server struct {
	mgr *jobs.Manager
	mux *http.ServeMux

	// Observability: a nil registry leaves every handle a no-op and
	// /metrics serving an empty (valid) exposition.
	reg   *obs.Registry
	met   serverMetrics
	start time.Time
	// Boot info surfaced on /healthz (WithBootInfo).
	dataDir  string
	recovery *jobs.RecoveryInfo

	// Stream lifecycle: Drain waits for in-flight NDJSON progress streams
	// to flush their terminal snapshots before the daemon closes its
	// listener, so clients see clean EOFs instead of connection resets.
	streamMu sync.Mutex
	draining bool
	streams  sync.WaitGroup
}

// Option configures a Server beyond its manager.
type Option func(*Server)

// WithObs exposes reg on GET /metrics and instruments every route with
// request/latency series. Purely observational: the API payloads are
// identical with or without it.
func WithObs(reg *obs.Registry) Option {
	return func(s *Server) { s.reg = reg }
}

// WithBootInfo surfaces the daemon's durability mode and recovery
// summary on /healthz.
func WithBootInfo(info jobs.RecoveryInfo, dataDir string) Option {
	return func(s *Server) {
		s.dataDir = dataDir
		s.recovery = &info
	}
}

// New builds the HTTP front end of a job manager.
func New(mgr *jobs.Manager, options ...Option) *Server {
	s := &Server{mgr: mgr, mux: http.NewServeMux(), start: time.Now()}
	for _, o := range options {
		o(s)
	}
	s.met = newServerMetrics(s.reg)
	s.mux.HandleFunc("POST /api/v1/campaigns", s.submit)
	s.mux.HandleFunc("GET /api/v1/campaigns", s.list)
	s.mux.HandleFunc("GET /api/v1/campaigns/{id}", s.status)
	s.mux.HandleFunc("GET /api/v1/campaigns/{id}/result", s.result)
	s.mux.HandleFunc("GET /api/v1/campaigns/{id}/stream", s.stream)
	s.mux.HandleFunc("DELETE /api/v1/campaigns/{id}", s.cancel)
	s.mux.HandleFunc("GET /api/v1/workloads", s.workloads)
	s.mux.HandleFunc("GET /api/v1/healthz", s.healthz)
	s.mux.HandleFunc("GET /healthz", s.healthz)
	s.mux.HandleFunc("GET /readyz", s.readyz)
	s.mux.Handle("GET /metrics", s.reg.Handler())
	s.mux.HandleFunc("POST /api/v1/shards/lease", s.shardLease)
	s.mux.HandleFunc("POST /api/v1/shards/{lease}/progress", s.shardProgress)
	s.mux.HandleFunc("POST /api/v1/shards/{lease}/complete", s.shardComplete)
	s.mux.HandleFunc("POST /api/v1/shards/{lease}/fail", s.shardFail)
	return s
}

// Handler returns the root handler: the instrumented mux.
func (s *Server) Handler() http.Handler { return s.instrument(s.mux) }

// Drain marks the server as shutting down — new stream subscriptions are
// refused with 503 — and waits for every in-flight NDJSON progress
// stream to finish flushing (or ctx to expire). Call it after closing
// the job manager (which terminates the jobs the streams are watching)
// and before http.Server.Shutdown, so the connections Shutdown waits on
// have already gone idle and no stream is cut mid-line.
func (s *Server) Drain(ctx context.Context) error {
	s.streamMu.Lock()
	s.draining = true
	s.streamMu.Unlock()
	done := make(chan struct{})
	go func() {
		s.streams.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// beginStream registers a live stream unless the server is draining.
func (s *Server) beginStream() bool {
	s.streamMu.Lock()
	defer s.streamMu.Unlock()
	if s.draining {
		return false
	}
	s.streams.Add(1)
	return true
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

type apiError struct {
	Error string `json:"error"`
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, apiError{Error: err.Error()})
}

// errCode maps manager errors onto HTTP status codes.
func errCode(err error) int {
	switch {
	case errors.Is(err, jobs.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, jobs.ErrQueueFull):
		return http.StatusServiceUnavailable
	case errors.Is(err, jobs.ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, jobs.ErrTerminal):
		return http.StatusConflict
	default:
		return http.StatusBadRequest
	}
}

func (s *Server) submit(w http.ResponseWriter, r *http.Request) {
	var req jobs.Request
	// A campaign request is a few hundred bytes; bound the body so one
	// oversized POST cannot exhaust server memory.
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	st, fresh, err := s.mgr.Submit(req)
	if err != nil {
		writeErr(w, errCode(err), err)
		return
	}
	code := http.StatusOK
	if fresh {
		code = http.StatusCreated
	}
	writeJSON(w, code, st)
}

func (s *Server) list(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Jobs []jobs.Status `json:"jobs"`
	}{Jobs: s.mgr.List()})
}

func (s *Server) status(w http.ResponseWriter, r *http.Request) {
	st, err := s.mgr.Get(r.PathValue("id"))
	if err != nil {
		writeErr(w, errCode(err), err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// result serves the bare canonical outcome, the payload that must be
// byte-identical across duplicate submissions and diffable against
// `faultcampaign -json`.
func (s *Server) result(w http.ResponseWriter, r *http.Request) {
	body, state, err := s.mgr.Result(r.PathValue("id"))
	if err != nil {
		writeErr(w, errCode(err), err)
		return
	}
	if body == nil {
		writeErr(w, http.StatusConflict,
			errors.New("jobs: job has no result yet (state "+string(state)+")"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}

func (s *Server) cancel(w http.ResponseWriter, r *http.Request) {
	// Cancel snapshots the status under its own lock; re-resolving the ID
	// here could 404 if a concurrent submission prunes the finished job.
	st, err := s.mgr.Cancel(r.PathValue("id"))
	if err != nil {
		writeErr(w, errCode(err), err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// stream writes NDJSON progress snapshots (one jobs.Progress per line,
// flushed immediately) until the job reaches a terminal state or the
// client disconnects. The last line is always the terminal snapshot
// unless the client left first.
func (s *Server) stream(w http.ResponseWriter, r *http.Request) {
	if !s.beginStream() {
		writeErr(w, http.StatusServiceUnavailable,
			errors.New("server: shutting down, not accepting new streams"))
		return
	}
	defer s.streams.Done()
	s.met.activeStreams.Inc()
	defer s.met.activeStreams.Dec()
	ch, unsub, err := s.mgr.Watch(r.PathValue("id"))
	if err != nil {
		writeErr(w, errCode(err), err)
		return
	}
	defer unsub()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for {
		select {
		case p, ok := <-ch:
			if !ok {
				return
			}
			if err := enc.Encode(p); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) workloads(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Workloads []string `json:"workloads"`
	}{Workloads: workloads.Names()})
}

// recoverySummary is the /healthz rendering of jobs.RecoveryInfo.
type recoverySummary struct {
	StoredResults   int  `json:"stored_results"`
	ResumedJobs     int  `json:"resumed_jobs"`
	RecoveredShards int  `json:"recovered_shards"`
	TornTail        bool `json:"torn_tail"`
}

func (s *Server) healthz(w http.ResponseWriter, r *http.Request) {
	resp := struct {
		Status        string           `json:"status"`
		UptimeSeconds float64          `json:"uptime_seconds"`
		Mode          string           `json:"mode"`
		DataDir       string           `json:"data_dir,omitempty"`
		Recovery      *recoverySummary `json:"recovery,omitempty"`
		Stats         jobs.Stats       `json:"stats"`
		Shards        *jobs.ShardStats `json:"shards,omitempty"`
	}{
		Status:        "ok",
		UptimeSeconds: time.Since(s.start).Seconds(),
		Mode:          "ephemeral",
		DataDir:       s.dataDir,
		Stats:         s.mgr.ManagerStats(),
	}
	if s.dataDir != "" {
		resp.Mode = "durable"
	}
	if s.recovery != nil {
		resp.Recovery = &recoverySummary{
			StoredResults:   s.recovery.StoredResults,
			ResumedJobs:     s.recovery.ResumedJobs,
			RecoveredShards: s.recovery.RecoveredShards,
			TornTail:        s.recovery.TornTail,
		}
	}
	if pool := s.mgr.ShardPool(); pool != nil {
		st := pool.Stats()
		resp.Shards = &st
	}
	writeJSON(w, http.StatusOK, resp)
}

// readyz answers readiness probes. A daemon that answers is ready: it
// binds its port only once recovery has finished, so during recovery a
// probe finds no listener rather than a "starting" answer.
func (s *Server) readyz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
	}{Status: "ready"})
}

// shardCall opens one shard-protocol POST: it resolves the manager's
// shard pool and decodes the JSON body, bounded to limit bytes, into v.
// It returns nil after answering the request itself — 404 when sharded
// execution is not enabled on this daemon, 400 for a malformed body.
func (s *Server) shardCall(w http.ResponseWriter, r *http.Request, limit int64, v any) *jobs.ShardPool {
	p := s.mgr.ShardPool()
	if p == nil {
		writeErr(w, http.StatusNotFound, jobs.ErrNoShards)
		return nil
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return nil
	}
	return p
}

// shardSettled answers a terminal shard report. 410 Gone tells the worker
// its lease expired and the work was redone elsewhere — discard and move
// on; any other error is the report's own fault.
func shardSettled(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, jobs.ErrNoLease):
		writeErr(w, http.StatusGone, err)
	case err != nil:
		writeErr(w, http.StatusBadRequest, err)
	default:
		writeJSON(w, http.StatusOK, struct{}{})
	}
}

// shardLease hands the next pending shard of any active campaign to a
// remote worker: 200 with the lease, or 204 when nothing is pending.
func (s *Server) shardLease(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Worker string `json:"worker"`
	}
	p := s.shardCall(w, r, 1<<16, &req)
	if p == nil {
		return
	}
	if req.Worker == "" {
		req.Worker = "remote"
	}
	lease, ok := p.Lease(req.Worker)
	if !ok {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, http.StatusOK, lease)
}

// shardProgress folds a worker's in-flight tally. The reply's cancel
// field tells the worker to stop the shard (the campaign converged, was
// cancelled, or no longer tracks this lease) and submit what it has.
func (s *Server) shardProgress(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Done     int `json:"done"`
		Failures int `json:"failures"`
	}
	p := s.shardCall(w, r, 1<<16, &req)
	if p == nil {
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Cancel bool `json:"cancel"`
	}{Cancel: p.Progress(r.PathValue("lease"), req.Done, req.Failures)})
}

// shardComplete merges a finished (or stop-cancelled partial) shard.
func (s *Server) shardComplete(w http.ResponseWriter, r *http.Request) {
	var out jobs.ShardOutput
	// A shard of a large campaign carries per-experiment outcomes; size
	// the bound like a result payload, not a control message.
	if p := s.shardCall(w, r, 64<<20, &out); p != nil {
		shardSettled(w, p.Complete(jobs.ShardResult{Lease: r.PathValue("lease"), Output: out}))
	}
}

// shardFail releases a lease after a worker-side error so the shard can
// be re-leased; the worker keeps polling for new work afterwards.
func (s *Server) shardFail(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Error string `json:"error"`
	}
	if p := s.shardCall(w, r, 1<<16, &req); p != nil {
		shardSettled(w, p.Fail(r.PathValue("lease"), req.Error))
	}
}

// Package server is the ossimd simulation service: an HTTP JSON API
// that runs simulations as jobs on a bounded worker pool with a FIFO
// queue, explicit backpressure, per-job deadlines and graceful drain.
//
// The paper's lesson — remove redundant memory traffic — applied one
// level up: simulation results are kept once, in a content-addressed
// result store (internal/store) keyed by core.RunConfig.CanonicalKey
// (configuration + machine + simulator version). A request walks one
// dedup chain: job table → store → singleflight → peer or local
// simulation. The server maps each canonical key to at most one live
// job, so N identical POSTs share one queue slot; a key the store
// holds is answered without queueing; the experiment.Runner, whose
// memo is that same store, singleflights any remaining duplicate
// computation and stores each result before its flight ends. N
// concurrent identical requests therefore cost exactly one simulation.
//
// Endpoints (v1 resource surface; API.md is the committed contract):
//
//	POST   /v1/runs                   submit one simulation       -> JobView
//	POST   /v1/campaigns              submit a parameter grid     -> JobView
//	GET    /v1/runs                   list jobs (?state=, ?cursor=, ?limit=)
//	GET    /v1/campaigns              list campaign jobs
//	GET    /v1/runs/{id}              job status, progress and result
//	GET    /v1/campaigns/{id}         campaign status (kind-checked)
//	GET    /v1/runs/{id}/stream       NDJSON progress, then the final view
//	GET    /v1/campaigns/{id}/stream  same; aggregate cell progress + ETA
//	GET    /v1/campaigns/{id}/report  comparison table + axis diff
//	DELETE /v1/runs/{id}              cancel (uniform across kinds)
//	DELETE /v1/campaigns/{id}         cancel (mid-grid keeps partial cells)
//	GET    /v1/results/{key}          stored result by content address
//	HEAD   /v1/results/{key}          existence probe, no body
//	GET    /v1/cluster                node table and store stats
//	GET    /v1/workloads              selectable workloads and presets
//	GET    /v1/metrics                JSON counters by default; Prometheus
//	                                  text under ?format=prometheus or a
//	                                  text/plain Accept header
//	GET    /healthz                   liveness and drain state
//
// The pre-resource paths (POST /v1/run, POST /v1/sweep,
// GET /v1/jobs/{id}[/stream], GET /metrics) and the retired sweep
// resource (/v1/sweeps[/{id}[/stream]]) were redirected with 308 for
// one release and have now been removed: they answer 404 with a JSON
// error naming the v1 successor. A former sweep body is a one-axis
// campaign body, so those clients post it to /v1/campaigns.
//
// Every client-facing error (400, 404, 429, 503) carries the uniform
// envelope {"error": {"code": "...", "message": "..."}}. A full queue
// answers 429 (code "queue_full") with Retry-After; a draining server
// answers 503 (code "draining"). Drain stops intake, cancels queued
// jobs, and waits for running simulations to finish.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"oscachesim/internal/campaign"
	"oscachesim/internal/core"
	"oscachesim/internal/experiment"
	"oscachesim/internal/scenario"
	"oscachesim/internal/sim"
	"oscachesim/internal/store"
	"oscachesim/internal/workload"
)

// Options configures a Server.
type Options struct {
	// Workers is the simulation worker-pool size (default 4).
	Workers int
	// QueueDepth is the FIFO queue capacity (default 64). A POST that
	// finds the queue full is answered 429 + Retry-After.
	QueueDepth int
	// JobTimeout is the per-job deadline (default 5m). Requests may
	// tighten it per job, never extend it.
	JobTimeout time.Duration
	// StreamInterval is the NDJSON progress frame period (default 250ms).
	StreamInterval time.Duration
	// Logger, when non-nil, receives structured request and job
	// lifecycle logs (method, path, status, latency; job id, kind,
	// state, queue wait). Nil disables logging — the quiet default the
	// test suite relies on.
	Logger *slog.Logger
	// Store, when non-nil, is the content-addressed result store and
	// the runner's memo: completed results are appended to it, and a
	// submitted key it already holds is answered terminal ("deduped":
	// true) without queueing — across process restarts, and across
	// servers sharing it. Nil uses a memory-only store.
	Store *store.Store
	// Cluster, when non-nil, puts the node in cluster mode — as the
	// coordinator (routing unique configurations to workers over a
	// consistent-hash ring) or a worker (serving forwarded computes).
	// Nil makes a single node; every node serves forwarded computes.
	Cluster *ClusterOptions

	// execute, when non-nil, replaces core.Run as the local
	// simulation beneath the runner — test seam for deterministic
	// queue-full and drain scenarios.
	execute func(ctx context.Context, cfg core.RunConfig) (*core.Outcome, error)
}

// withDefaults fills unset options.
func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.JobTimeout <= 0 {
		o.JobTimeout = 5 * time.Minute
	}
	if o.StreamInterval <= 0 {
		o.StreamInterval = 250 * time.Millisecond
	}
	if o.execute == nil {
		o.execute = core.Run
	}
	return o
}

// Server is the simulation daemon. Create with New, expose with
// Handler, stop with Drain.
type Server struct {
	opts    Options
	runner  *experiment.Runner
	metrics *metrics
	store   *store.Store // always non-nil (memory-only fallback)
	cluster *clusterState

	queue chan *Job
	wg    sync.WaitGroup // workers

	// localExecs counts simulations this process actually ran — not
	// served from the store, a flight or a peer. Summed across a
	// cluster it audits the exactly-once invariant.
	localExecs atomic.Uint64

	mu       sync.Mutex
	draining bool
	seq      int
	jobs     map[string]*Job // id -> job
	byKey    map[string]*Job // canonical key -> job (dedup layer)
	order    []*Job          // submission order (collection listings)
}

// New builds a Server and starts its worker pool.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:    opts,
		store:   opts.Store,
		cluster: newClusterState(opts.Cluster),
		queue:   make(chan *Job, opts.QueueDepth),
		jobs:    make(map[string]*Job),
		byKey:   make(map[string]*Job),
	}
	if s.store == nil {
		s.store, _ = store.Open("", nil) // memory-only never fails
	}
	// Store misses not already in flight go to the owning peer
	// (coordinator mode), then a local simulation.
	s.runner = experiment.NewStoreRunner(context.Background(), experiment.Config{Seed: 1}, s.store, s.computeOutcome)
	s.metrics = newMetrics(s)
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	if s.cluster.members != nil {
		go s.sweeper()
	}
	return s
}

// jobID renders the id of the n-th accepted job.
func jobID(n int) string { return fmt.Sprintf("j-%06d", n) }

// Store exposes the server's result store (read-only uses: CLI stats,
// tests).
func (s *Server) Store() *store.Store { return s.store }

// route is one entry of the v1 routing table: the Go 1.22 mux pattern,
// the bounded endpoint label its latency histogram carries, and the
// handler. The table is data so the contract test can assert every
// pattern is documented in API.md.
type route struct {
	pattern  string
	endpoint string
	h        http.HandlerFunc
}

// routes returns the daemon's full v1 routing table.
func (s *Server) routes() []route {
	return []route{
		{"POST /v1/runs", "/v1/runs", s.handleRun},
		{"POST /v1/campaigns", "/v1/campaigns", s.handleCampaign},
		{"GET /v1/runs", "/v1/runs", s.handleList("run")},
		{"GET /v1/campaigns", "/v1/campaigns", s.handleList("campaign")},
		{"GET /v1/runs/{id}", "/v1/runs/{id}", s.handleJob("")},
		{"GET /v1/campaigns/{id}", "/v1/campaigns/{id}", s.handleJob("campaign")},
		{"GET /v1/runs/{id}/stream", "/v1/runs/{id}/stream", s.handleStream("")},
		{"GET /v1/campaigns/{id}/stream", "/v1/campaigns/{id}/stream", s.handleStream("campaign")},
		{"GET /v1/campaigns/{id}/report", "/v1/campaigns/{id}/report", s.handleCampaignReport},
		{"DELETE /v1/runs/{id}", "/v1/runs/{id}", s.handleCancel("run")},
		{"DELETE /v1/campaigns/{id}", "/v1/campaigns/{id}", s.handleCancel("campaign")},
		{"GET /v1/results/{key}", "/v1/results/{key}", s.handleResult},
		{"HEAD /v1/results/{key}", "/v1/results/{key}", s.handleResult},
		{"GET /v1/cluster", "/v1/cluster", s.handleClusterView},
		{"POST /v1/cluster/nodes", "/v1/cluster/nodes", s.handleClusterRegister},
		{"POST /v1/cluster/nodes/{id}/heartbeat", "/v1/cluster/nodes/{id}/heartbeat", s.handleClusterHeartbeat},
		{"POST /v1/internal/compute", "/v1/internal/compute", s.handleInternalCompute},
		{"GET /v1/workloads", "/v1/workloads", s.handleWorkloads},
		{"GET /v1/metrics", "/v1/metrics", s.metrics.handler},
		{"GET /healthz", "/healthz", s.handleHealthz},
	}
}

// Handler returns the daemon's HTTP handler: the v1 resource routes,
// instrumented with per-endpoint latency histograms and (when a Logger
// is configured) structured request logs. The removed pre-resource
// paths answer 404 with an error naming their v1 successor, so an old
// client's failure mode is self-explaining.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	// handle registers one instrumented route. The endpoint label is
	// the route pattern's path, giving the latency histogram a bounded
	// label set regardless of request cardinality.
	handle := func(pattern, endpoint string, h http.HandlerFunc) {
		hist := s.metrics.httpHist(endpoint)
		mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			t0 := time.Now()
			sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
			h(sw, r)
			d := time.Since(t0)
			hist.ObserveDuration(d)
			if l := s.opts.Logger; l != nil {
				l.Info("request",
					"method", r.Method, "path", r.URL.Path, "endpoint", endpoint,
					"status", sw.status, "duration_ms", float64(d.Microseconds())/1000)
			}
		})
	}
	for _, rt := range s.routes() {
		handle(rt.pattern, rt.endpoint, rt.h)
	}

	// Removed legacy surface (the 308 deprecation window has closed):
	// explicit 404s whose message names the successor, instead of the
	// mux's bare not-found.
	gone := func(hint string) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			writeError(w, http.StatusNotFound, "not_found",
				"this path was removed; use "+hint)
		}
	}
	mux.HandleFunc("POST /v1/run", gone("POST /v1/runs"))
	mux.HandleFunc("POST /v1/sweep", gone("POST /v1/campaigns"))
	mux.HandleFunc("GET /v1/jobs/{id}", gone("GET /v1/runs/{id}"))
	mux.HandleFunc("GET /v1/jobs/{id}/stream", gone("GET /v1/runs/{id}/stream"))
	mux.HandleFunc("GET /metrics", gone("GET /v1/metrics"))
	mux.HandleFunc("POST /v1/sweeps", gone("POST /v1/campaigns"))
	mux.HandleFunc("GET /v1/sweeps", gone("GET /v1/campaigns"))
	mux.HandleFunc("GET /v1/sweeps/{id}", gone("GET /v1/campaigns/{id}"))
	mux.HandleFunc("GET /v1/sweeps/{id}/stream", gone("GET /v1/campaigns/{id}/stream"))
	mux.HandleFunc("DELETE /v1/sweeps/{id}", gone("DELETE /v1/campaigns/{id}"))
	return mux
}

// statusWriter captures the response status for the request log and
// latency histogram while forwarding Flush — the stream endpoint
// depends on the writer being an http.Flusher.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Drain gracefully shuts the server down: intake stops (new POSTs get
// 503), jobs still queued are canceled, and running simulations finish
// before Drain returns. ctx bounds the wait; on expiry the remaining
// simulations are abandoned (the process is exiting anyway) and ctx's
// error is returned.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	// Safe to close under the lock: every send is also under the lock
	// and re-checks draining first.
	close(s.queue)
	s.mu.Unlock()
	close(s.cluster.stopSweep)

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return context.Cause(ctx)
	}
}

// worker executes jobs until the queue closes at drain.
func (s *Server) worker() {
	defer s.wg.Done()
	for job := range s.queue {
		if s.isDraining() {
			// Queued at shutdown: cancel instead of starting a
			// potentially long simulation.
			if job.cancelQueued("server draining") {
				s.settle(job, 0)
			}
			continue
		}
		s.execute(job)
	}
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// execute runs one job to a terminal state.
func (s *Server) execute(job *Job) {
	wait, ok := job.setRunning()
	if !ok {
		// Canceled by the client while queued; nothing to do.
		return
	}
	s.metrics.jobStarted(wait)
	if l := s.opts.Logger; l != nil {
		l.Info("job started", "job_id", job.ID, "kind", job.Kind,
			"queue_wait_ms", float64(wait.Microseconds())/1000)
	}
	// Every kind runs under a cancellable context so its DELETE can
	// stop it mid-flight; partial grid results survive the cancel.
	base, cancel := context.WithTimeout(context.Background(), job.Timeout)
	defer cancel()
	ctx, cancelCause := context.WithCancelCause(base)
	job.armCancel(cancelCause)
	defer cancelCause(nil)
	// canceledErr normalizes "the client asked us to stop" regardless
	// of which layer surfaced the context error.
	canceledErr := func(err error) bool {
		return errors.Is(err, errClientCanceled) ||
			errors.Is(context.Cause(ctx), errClientCanceled)
	}

	var err error
	var stages core.StageTimings
	var run *core.Outcome
	var kept []int
	switch job.Kind {
	case "run":
		cfg := job.Cfg
		cfg.Progress = job.Progress
		if run, err = s.runner.OutcomeConfig(ctx, cfg); err == nil {
			stages = run.Stages
		}
	case "campaign":
		var cells []campaign.CellOutcome
		cells, err = campaign.Run(ctx, s.runner, job.Plan, job.Camp)
		if err != nil && canceledErr(err) {
			kept = keptCells(job.Plan, cells)
		}
	}
	switch {
	case err == nil:
		// The result is rendered the way every view renders it: decoded
		// from the store, which the runner filled.
		t0 := time.Now()
		r, ok := s.result(job, JobDone, nil)
		render := time.Since(t0)
		if !ok {
			s.finalize(job, errors.New("internal: result missing from the store"), 0, nil, nil)
			break
		}
		s.metrics.observeRender(render)
		if job.Kind == "campaign" {
			snap := job.Camp.Snapshot()
			stages = snap.Stages
			s.putCampaignRecord(job)
			s.metrics.campaignFinished(len(job.Plan.Cells), len(job.Plan.Unique), snap.Elapsed)
		}
		stages.Render = render
		sv := stageView(stages)
		if run != nil {
			sv.GenStalls, sv.GenStallSeconds = run.GenStalls, run.GenStallTime.Seconds()
		}
		s.finalize(job, nil, r.simSeconds, sv, nil)
	case canceledErr(err):
		s.finalize(job, errClientCanceled, 0, nil, kept)
	default:
		s.finalize(job, err, 0, nil, nil)
	}
	if l := s.opts.Logger; l != nil {
		l.Info("job finished", "job_id", job.ID, "kind", job.Kind,
			"state", string(job.State()))
	}
}

// finalize finishes a job (Job.finish) and settles it; simSeconds is
// the simulated time a done job's result covers.
func (s *Server) finalize(job *Job, err error, simSeconds float64, stages *StageView, kept []int) {
	job.finish(err, stages, kept)
	s.settle(job, simSeconds)
}

// settle maintains the dedup index and the metrics once a job is
// terminal: a job that did not end done is removed from byKey, so a
// retry of the same configuration runs again instead of being
// deduplicated onto the failure or cancellation.
func (s *Server) settle(job *Job, simSeconds float64) {
	done := job.State() == JobDone
	s.mu.Lock()
	if !done && s.byKey[job.Key] == job {
		delete(s.byKey, job.Key)
	}
	s.mu.Unlock()
	s.metrics.jobFinished(job, simSeconds)
}

// submit registers and enqueues a job, deduplicating by canonical key.
// It returns the job that represents the request (possibly an existing
// one), whether it was deduplicated, and an error when the queue is
// full or the server is draining.
var (
	errQueueFull = errors.New("queue full")
	errDraining  = errors.New("server draining")
)

func (s *Server) submit(job *Job) (*Job, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, false, errDraining
	}
	if existing, ok := s.byKey[job.Key]; ok {
		// Identical configuration already queued, running or done:
		// this request costs nothing.
		s.metrics.deduped.Inc()
		return existing, true, nil
	}
	if s.jobFromStoreLocked(job) {
		// The durable store already holds this key (this process or a
		// previous one computed it): the job materializes terminal
		// without ever touching the queue.
		return job, true, nil
	}
	// Identity and indexes are fixed before the queue send makes the
	// job visible to workers.
	s.seq++
	job.ID = jobID(s.seq)
	select {
	case s.queue <- job:
	default:
		s.metrics.rejected.Inc()
		return nil, false, errQueueFull
	}
	s.jobs[job.ID] = job
	s.byKey[job.Key] = job
	s.order = append(s.order, job)
	s.metrics.queued.Inc()
	return job, false, nil
}

// lookup finds a job by id.
func (s *Server) lookup(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// --- HTTP handlers ---------------------------------------------------

// handleRun accepts one simulation.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	cfg, rr, err := decodeRunRequest(r.Body)
	if err != nil {
		s.clientError(w, err)
		return
	}
	s.respondSubmit(w, newRunJob(cfg, rr.timeout(s.opts.JobTimeout), rr))
}

// newRunJob builds a queued run job for cfg with its progress feed;
// req is the decoded body its status echoes (nil for a forward).
func newRunJob(cfg core.RunConfig, timeout time.Duration, req any) *Job {
	job := newJob("", "run", cfg.CanonicalKey(), timeout)
	job.Cfg = cfg
	job.Progress = &sim.Progress{}
	job.Request = req
	return job
}

// admit runs the shared submit path. When the job is not admitted it
// answers 429 + Retry-After (queue full) or 503 (draining) itself and
// reports false.
func (s *Server) admit(w http.ResponseWriter, job *Job) (*Job, bool, bool) {
	got, deduped, err := s.submit(job)
	switch {
	case errors.Is(err, errQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "queue_full", "queue full, retry later")
	case errors.Is(err, errDraining):
		writeError(w, http.StatusServiceUnavailable, "draining", "server draining")
	}
	return got, deduped, err == nil
}

// respondSubmit admits a job and answers with its view.
func (s *Server) respondSubmit(w http.ResponseWriter, job *Job) {
	got, deduped, ok := s.admit(w, job)
	if !ok {
		return
	}
	status := http.StatusAccepted
	if deduped {
		status = http.StatusOK
	}
	writeJSON(w, status, s.view(got, deduped))
}

// WorkloadInfo describes one selectable workload: a calibrated
// built-in profile, or a scenario preset usable as {"scenario":
// {"preset": name}}.
type WorkloadInfo struct {
	Name        string `json:"name"`
	Kind        string `json:"kind"` // "profile" or "scenario_preset"
	Description string `json:"description"`
}

// WorkloadList is the body of GET /v1/workloads.
type WorkloadList struct {
	Workloads []WorkloadInfo `json:"workloads"`
}

// handleWorkloads lists the selectable workloads and scenario presets.
func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	var list WorkloadList
	for _, n := range workload.Names() {
		list.Workloads = append(list.Workloads, WorkloadInfo{
			Name: string(n), Kind: "profile", Description: workload.Description(n),
		})
	}
	for _, n := range scenario.PresetNames() {
		list.Workloads = append(list.Workloads, WorkloadInfo{
			Name: n, Kind: "scenario_preset", Description: scenario.PresetDescription(n),
		})
	}
	writeJSON(w, http.StatusOK, list)
}

// handleHealthz reports liveness.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":       true,
		"draining": draining,
		"version":  core.SimVersion,
	})
}

// clientError writes a 400 for request errors, 500 otherwise. A
// FieldError's dotted path lands in the envelope's "field" member so
// clients can attribute the failure without parsing the message.
func (s *Server) clientError(w http.ResponseWriter, err error) {
	if isRequestError(err) {
		writeJSON(w, http.StatusBadRequest, ErrorBody{Error: ErrorDetail{
			Code: "bad_request", Message: err.Error(), Field: errorField(err),
		}})
		return
	}
	writeError(w, http.StatusInternalServerError, "internal", err.Error())
}

// ErrorBody is the uniform JSON error envelope of every client-facing
// failure (400, 404, 429, 503): a stable machine-readable code plus a
// human-readable message.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail is the envelope payload. Codes in use: bad_request,
// not_found, not_ready, queue_full, draining, internal. Field, when
// present, is the dotted path of the request field that failed
// validation.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	Field   string `json:"field,omitempty"`
}

// writeError writes the uniform error envelope.
func writeError(w http.ResponseWriter, status int, code, message string) {
	writeJSON(w, status, ErrorBody{Error: ErrorDetail{Code: code, Message: message}})
}

// writeJSON writes one JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

package server

// This file is the daemon's cluster mode: coordinator-side consistent-
// hash routing of unique configurations to workers (each canonical key
// computed exactly once cluster-wide), worker registration and
// heartbeat handling, the worker-side internal compute endpoint, and
// the compute hook the runner calls on a store miss not already in
// flight — the owning peer, then a local simulation.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"time"

	"oscachesim/internal/cluster"
	"oscachesim/internal/core"
	"oscachesim/internal/store"
)

// ClusterOptions configures a node's cluster role.
type ClusterOptions struct {
	// NodeID is this node's stable identity (ring placement, node
	// table). Defaults to "ossimd".
	NodeID string
	// Coordinator makes this node route compute: it owns the
	// membership table, accepts worker registrations, and forwards
	// each unique configuration to the worker owning its key.
	Coordinator bool
	// HeartbeatTimeout is how long a worker may stay silent before the
	// coordinator routes around it (default 3s). Workers are told to
	// heartbeat at a third of it.
	HeartbeatTimeout time.Duration
	// HTTP overrides the forwarding transport (tests).
	HTTP *http.Client
}

// clusterState is the server's cluster runtime, present on every
// node: its identity, membership (coordinator only) and the
// forwarding client.
type clusterState struct {
	opts    ClusterOptions
	members *cluster.Membership // nil unless coordinator
	client  cluster.Client
	// stopSweep ends the coordinator's membership sweeper.
	stopSweep chan struct{}
}

// newClusterState builds the runtime for the configured role; nil
// options make a single node.
func newClusterState(opts *ClusterOptions) *clusterState {
	cs := &clusterState{stopSweep: make(chan struct{})}
	if opts != nil {
		cs.opts = *opts
	}
	if cs.opts.NodeID == "" {
		cs.opts.NodeID = "ossimd"
	}
	if cs.opts.HeartbeatTimeout <= 0 {
		cs.opts.HeartbeatTimeout = 3 * time.Second
	}
	cs.client = cluster.Client{HTTP: cs.opts.HTTP}
	if cs.opts.Coordinator {
		cs.members = cluster.NewMembership(cs.opts.HeartbeatTimeout)
	}
	return cs
}

// forwardFanout bounds how many ring owners a key is tried on before
// the coordinator computes it locally.
const forwardFanout = 3

// forwardRetries bounds 429-backoff retries against one saturated
// worker before moving to the next ring owner.
const forwardRetries = 3

// computeOutcome is the runner's compute hook: the tail of the dedup
// chain after the store and singleflight miss. The owning peer first
// (coordinator mode), then a local simulation; the runner stores the
// result so the next request, process or node finds it.
func (s *Server) computeOutcome(ctx context.Context, cfg core.RunConfig) (*core.Outcome, error) {
	if s.cluster.members != nil {
		if o, ok := s.forwardCompute(ctx, cfg.CanonicalKey(), cfg); ok {
			return o, nil
		}
	}
	o, err := s.executeLocal(ctx, cfg)
	if err != nil {
		return nil, err
	}
	s.localExecs.Add(1)
	return o, nil
}

// executeLocal runs one local simulation, turning a panic into an
// error: a faulty run fails its own job (or its campaign cell, or the
// peer's forwarded compute) with an internal error that names the
// panic, instead of taking the daemon down. The stack goes to the
// logger. Every run path reaches the simulator through here, and store
// hits, flight joins and forwarded results never do, so each successful
// execution's stage timings enter the stage histograms here.
func (s *Server) executeLocal(ctx context.Context, cfg core.RunConfig) (o *core.Outcome, err error) {
	defer func() {
		v := recover()
		if v == nil {
			return
		}
		o, err = nil, fmt.Errorf("internal: simulation panicked: %v", v)
		if l := s.opts.Logger; l != nil {
			l.Error("simulation panicked", "workload", string(cfg.Workload),
				"system", cfg.System.String(), "panic", fmt.Sprint(v), "stack", string(debug.Stack()))
		}
	}()
	if o, err = s.opts.execute(ctx, cfg); err == nil {
		s.metrics.observeRunStages(o.Stages)
	}
	return o, err
}

// forwardCompute routes one configuration to the workers owning its
// key, walking the ring's failover sequence: a saturated worker (429)
// is retried after its Retry-After, an unreachable one is marked
// suspect — taking it out of the ring for every future key — and the
// work re-queues to the next owner. Exhausting the sequence falls back
// to local computation; ok=false means "compute it here".
func (s *Server) forwardCompute(ctx context.Context, key string, cfg core.RunConfig) (*core.Outcome, bool) {
	creq, err := cluster.EncodeConfig(cfg)
	if err != nil {
		// Monitored configurations are process-local by construction.
		return nil, false
	}
	cl := s.cluster
	seq := cl.members.Sequence(key, forwardFanout)
	if len(seq) == 0 {
		return nil, false
	}
	s.metrics.clusterRouted.Inc()
	for i, node := range seq {
		rec, err := s.forwardToNode(ctx, node.Addr, creq)
		if err == nil {
			if o, oerr := rec.Outcome(); oerr == nil {
				s.metrics.clusterForwarded.Inc()
				return o, true
			}
			return nil, false
		}
		if ctx.Err() != nil {
			return nil, false
		}
		// The owner is gone or persistently saturated: route around it.
		cl.members.MarkSuspect(node.ID)
		if i < len(seq)-1 {
			s.metrics.clusterRequeued.Inc()
		}
		if l := s.opts.Logger; l != nil {
			l.Warn("compute forward failed, re-queueing",
				"node", node.ID, "addr", node.Addr, "key", key[:12], "err", err)
		}
	}
	return nil, false
}

// forwardToNode tries one worker, absorbing bounded 429 backpressure.
func (s *Server) forwardToNode(ctx context.Context, addr string, creq *cluster.ComputeRequest) (*store.Record, error) {
	var lastErr error
	for attempt := 0; attempt < forwardRetries; attempt++ {
		rec, err := s.cluster.client.Compute(ctx, addr, creq)
		if err == nil {
			return rec, nil
		}
		lastErr = err
		var ra *cluster.RetryAfterError
		if !errors.As(err, &ra) {
			return nil, err
		}
		t := time.NewTimer(ra.After)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return nil, context.Cause(ctx)
		}
	}
	return nil, lastErr
}

// sweeper expires silent workers periodically (coordinator only).
func (s *Server) sweeper() {
	cl := s.cluster
	tick := time.NewTicker(cl.opts.HeartbeatTimeout / 2)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			for _, id := range cl.members.Sweep() {
				if l := s.opts.Logger; l != nil {
					l.Warn("worker lost (heartbeat timeout); its keys re-route", "node", id)
				}
			}
		case <-cl.stopSweep:
			return
		}
	}
}

// nodeStats snapshots this node's load for heartbeats and the cluster
// view.
func (s *Server) nodeStats() cluster.NodeStats {
	return cluster.NodeStats{
		QueueDepth:   len(s.queue),
		StoreRecords: s.store.Len(),
		Executions:   s.localExecs.Load(),
	}
}

// ClusterStats is the agent's heartbeat payload source for cmd/ossimd.
func (s *Server) ClusterStats() cluster.NodeStats { return s.nodeStats() }

// --- HTTP handlers ---------------------------------------------------

// ClusterNode is one row of GET /v1/cluster's node table.
type ClusterNode struct {
	ID    string `json:"id"`
	Addr  string `json:"addr,omitempty"`
	Role  string `json:"role"` // "coordinator", "worker" or "single"
	State string `json:"state"`
	// LastSeen is the last heartbeat (workers only).
	LastSeen   *time.Time `json:"last_seen,omitempty"`
	QueueDepth int        `json:"queue_depth"`
	// Executions counts simulations this node actually ran — summed
	// across the table it audits the exactly-once invariant.
	Executions uint64 `json:"executions"`
	// Store is the node's result-store state. For remote workers only
	// the record count is known (it travels in heartbeats).
	Store store.Stats `json:"store"`
}

// ClusterView is the body of GET /v1/cluster.
type ClusterView struct {
	Self ClusterNode `json:"self"`
	// Nodes is the coordinator's worker table (empty on workers and
	// single-node daemons).
	Nodes []ClusterNode `json:"nodes"`
}

// handleClusterView serves the node table. It answers on every node —
// a worker or single-node daemon reports itself with an empty table —
// so operators can point the same tooling anywhere.
func (s *Server) handleClusterView(w http.ResponseWriter, r *http.Request) {
	cl := s.cluster
	view := ClusterView{
		Self: ClusterNode{
			ID:         cl.opts.NodeID,
			Role:       "single",
			State:      string(cluster.NodeAlive),
			QueueDepth: len(s.queue),
			Executions: s.localExecs.Load(),
			Store:      s.store.Stats(),
		},
		Nodes: []ClusterNode{},
	}
	switch {
	case cl.members != nil:
		view.Self.Role = "coordinator"
		for _, n := range cl.members.Snapshot() {
			ls := n.LastSeen
			view.Nodes = append(view.Nodes, ClusterNode{
				ID:         n.ID,
				Addr:       n.Addr,
				Role:       "worker",
				State:      string(n.State),
				LastSeen:   &ls,
				QueueDepth: n.Stats.QueueDepth,
				Executions: n.Stats.Executions,
				Store:      store.Stats{Records: n.Stats.StoreRecords},
			})
		}
	case s.opts.Cluster != nil:
		view.Self.Role = "worker"
	}
	writeJSON(w, http.StatusOK, view)
}

// handleClusterRegister is POST /v1/cluster/nodes: a worker joining
// (or rejoining) the cluster. Only a coordinator keeps a table.
func (s *Server) handleClusterRegister(w http.ResponseWriter, r *http.Request) {
	cl := s.cluster
	if cl.members == nil {
		writeError(w, http.StatusBadRequest, "bad_request", "this node is not a coordinator")
		return
	}
	var req cluster.RegisterRequest
	if err := decodeJSON(r.Body, &req); err != nil {
		s.clientError(w, err)
		return
	}
	if req.ID == "" || req.Addr == "" {
		writeError(w, http.StatusBadRequest, "bad_request", "registration needs id and addr")
		return
	}
	known := cl.members.Register(req.ID, req.Addr)
	s.metrics.ensureNodeGauges(req.ID)
	if l := s.opts.Logger; l != nil {
		l.Info("worker registered", "node", req.ID, "addr", req.Addr, "known", known)
	}
	writeJSON(w, http.StatusOK, cluster.RegisterResponse{
		Known:       known,
		HeartbeatMS: (cl.opts.HeartbeatTimeout / 3).Milliseconds(),
	})
}

// handleClusterHeartbeat is POST /v1/cluster/nodes/{id}/heartbeat. An
// unknown id answers 404 — the signal that the coordinator restarted
// and the worker must re-register.
func (s *Server) handleClusterHeartbeat(w http.ResponseWriter, r *http.Request) {
	cl := s.cluster
	if cl.members == nil {
		writeError(w, http.StatusBadRequest, "bad_request", "this node is not a coordinator")
		return
	}
	var stats cluster.NodeStats
	if err := decodeJSON(r.Body, &stats); err != nil {
		s.clientError(w, err)
		return
	}
	if !cl.members.Heartbeat(r.PathValue("id"), stats) {
		writeError(w, http.StatusNotFound, "not_found", "unknown node; re-register")
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ok": true})
}

// handleInternalCompute is POST /v1/internal/compute: the worker side
// of a coordinator forward, served as a run job. After the key and
// bounds checks the configuration takes POST /v1/runs' path — job
// table, store, queue, this node's workers — so -workers bounds every
// simulation the node runs, a full queue answers 429 with Retry-After
// (the coordinator backs off or re-routes), and the forward shows up
// in the job listing and the metrics. The response is the stored
// result record. A forward whose request ends first cancels the job it
// created, as a DELETE would.
func (s *Server) handleInternalCompute(w http.ResponseWriter, r *http.Request) {
	var creq cluster.ComputeRequest
	if err := decodeJSON(r.Body, &creq); err != nil {
		s.clientError(w, err)
		return
	}
	cfg, err := creq.Config()
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	if err := checkBounds(cfg); err != nil {
		s.clientError(w, err)
		return
	}
	job, deduped, ok := s.admit(w, newRunJob(cfg, s.opts.JobTimeout, nil))
	if !ok {
		return
	}
	select {
	case <-job.Done():
	case <-r.Context().Done():
		if !deduped {
			s.cancel(job)
		}
		return
	}
	if job.State() != JobDone {
		writeError(w, http.StatusInternalServerError, "internal", job.summary().Error)
		return
	}
	s.metrics.clusterServed.Inc()
	writeJSON(w, http.StatusOK, s.store.Get(job.Key))
}

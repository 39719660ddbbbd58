package server

import (
	"expvar"
	"net/http"
	"strings"
	"time"

	"oscachesim/internal/core"
	"oscachesim/internal/obs"
)

// metrics is the daemon's observability surface. The counters live in
// an obs.Registry — per-server, not process-global, because the test
// suite runs many servers in one process — and are mirrored into an
// expvar.Map so GET /v1/metrics can keep serving the flat JSON
// document earlier clients parse. The same registry renders the
// Prometheus text exposition when the client asks for it (see handler).
//
// JSON vars (legacy names, stable):
//
//	queue_depth        current FIFO occupancy
//	queue_capacity     configured queue bound
//	workers            worker-pool size
//	jobs_queued        jobs accepted into the queue (cumulative)
//	jobs_running       jobs currently simulating
//	jobs_done          jobs finished successfully (cumulative)
//	jobs_failed        jobs finished with an error (cumulative)
//	jobs_canceled      jobs canceled by drain (cumulative)
//	jobs_deduped       POSTs answered by an existing job (cumulative)
//	jobs_rejected      POSTs answered 429 (cumulative)
//	cache_hits         result-cache hits: deduped POSTs + runner hits/joins
//	cache_misses       runner compute calls (peer or local simulation)
//	cache_hit_ratio    hits / (hits + misses), 0 when idle
//	sim_seconds_served total simulated seconds of completed jobs
//
// Prometheus series carry the ossimd_ prefix; the histograms
// (ossimd_run_stage_seconds{stage}, ossimd_queue_wait_seconds,
// ossimd_http_request_seconds{endpoint}) exist only there — expvar has
// no histogram shape worth faking.
type metrics struct {
	srv *Server
	m   *expvar.Map
	reg *obs.Registry

	queued, done, failed, canceled *obs.Counter
	deduped, rejected              *obs.Counter
	campaignCells                  *obs.Counter
	campaignCellsDeduped           *obs.Counter
	storeServed                    *obs.Counter
	clusterRouted                  *obs.Counter
	clusterForwarded               *obs.Counter
	clusterRequeued                *obs.Counter
	clusterServed                  *obs.Counter
	running                        expvar.Int

	campaignDur *obs.Histogram

	simSeconds expvar.Float

	queueWait *obs.Histogram
	stage     map[string]*obs.Histogram // by stage label
}

func newMetrics(s *Server) *metrics {
	mt := &metrics{srv: s, m: new(expvar.Map).Init(), reg: obs.NewRegistry()}

	mt.queued = mt.reg.Counter("ossimd_jobs_queued_total", "jobs accepted into the queue")
	mt.done = mt.reg.Counter("ossimd_jobs_done_total", "jobs finished successfully")
	mt.failed = mt.reg.Counter("ossimd_jobs_failed_total", "jobs finished with an error")
	mt.canceled = mt.reg.Counter("ossimd_jobs_canceled_total", "jobs canceled by drain")
	mt.deduped = mt.reg.Counter("ossimd_jobs_deduped_total", "POSTs answered by an existing job")
	mt.rejected = mt.reg.Counter("ossimd_jobs_rejected_total", "POSTs answered 429")
	mt.campaignCells = mt.reg.Counter("ossimd_campaign_cells_total",
		"grid cells served by completed campaigns")
	mt.campaignCellsDeduped = mt.reg.Counter("ossimd_campaign_cells_deduped_total",
		"campaign cells credited from another cell's simulation")
	mt.storeServed = mt.reg.Counter("ossimd_store_served_jobs_total",
		"submitted jobs materialized terminal straight from the store")
	mt.clusterRouted = mt.reg.Counter("ossimd_cluster_routed_total",
		"unique configurations routed to the ring")
	mt.clusterForwarded = mt.reg.Counter("ossimd_cluster_forwarded_total",
		"configurations computed by a peer on our behalf")
	mt.clusterRequeued = mt.reg.Counter("ossimd_cluster_requeued_total",
		"forwards re-queued to the next ring owner after a node failure")
	mt.clusterServed = mt.reg.Counter("ossimd_cluster_compute_served_total",
		"forwarded compute requests this node answered")

	mt.reg.GaugeFunc("ossimd_queue_depth", "current FIFO occupancy",
		func() float64 { return float64(len(s.queue)) })
	mt.reg.GaugeFunc("ossimd_queue_capacity", "configured queue bound",
		func() float64 { return float64(cap(s.queue)) })
	mt.reg.GaugeFunc("ossimd_workers", "worker-pool size",
		func() float64 { return float64(s.opts.Workers) })
	mt.reg.GaugeFunc("ossimd_jobs_running", "jobs currently simulating",
		func() float64 { return float64(mt.running.Value()) })
	mt.reg.GaugeFunc("ossimd_cache_hits", "result-cache hits: deduped POSTs + runner hits and joins",
		func() float64 { return float64(mt.cacheHits()) })
	mt.reg.GaugeFunc("ossimd_store_hits_total", "runner requests answered by the result store",
		func() float64 { return float64(s.runner.Stats().Hits) })
	mt.reg.GaugeFunc("ossimd_cache_misses", "runner compute calls, forwarded to a peer or simulated locally",
		func() float64 { return float64(s.runner.Stats().Executions) })
	mt.reg.GaugeFunc("ossimd_cache_hit_ratio", "hits / (hits + misses), 0 when idle",
		func() float64 { return mt.hitRatio() })
	mt.reg.GaugeFunc("ossimd_sim_seconds_served", "total simulated seconds of completed jobs",
		func() float64 { return mt.simSeconds.Value() })
	mt.reg.GaugeFunc("ossimd_store_records", "distinct keys in the durable result store",
		func() float64 { return float64(s.store.Len()) })
	mt.reg.GaugeFunc("ossimd_store_replay_skipped", "corrupt or truncated records skipped at boot replay",
		func() float64 {
			st := s.store.Stats()
			return float64(st.SkippedCorrupt + st.SkippedTruncated)
		})
	mt.reg.GaugeFunc("ossimd_local_executions", "simulations this process actually ran",
		func() float64 { return float64(s.localExecs.Load()) })
	if s.cluster != nil && s.cluster.members != nil {
		mt.reg.GaugeFunc("ossimd_cluster_nodes", "workers currently in the ring",
			func() float64 { return float64(s.cluster.members.AliveCount()) })
	}

	mt.queueWait = mt.reg.Histogram("ossimd_queue_wait_seconds",
		"time a job spent queued before a worker picked it up", obs.DurationBuckets())
	mt.campaignDur = mt.reg.Histogram("ossimd_campaign_seconds",
		"campaign wall clock, submission of the grid to the last cell",
		obs.WideDurationBuckets())
	mt.stage = make(map[string]*obs.Histogram, 4)
	for _, stage := range []string{"build", "stream", "simulate", "render"} {
		mt.stage[stage] = mt.reg.Histogram("ossimd_run_stage_seconds",
			"per-run stage wall clock, by stage", obs.DurationBuckets(), obs.L("stage", stage))
	}

	mt.m.Set("queue_depth", expvar.Func(func() any { return len(s.queue) }))
	mt.m.Set("queue_capacity", expvar.Func(func() any { return cap(s.queue) }))
	mt.m.Set("workers", expvar.Func(func() any { return s.opts.Workers }))
	mt.m.Set("jobs_queued", expvar.Func(func() any { return mt.queued.Value() }))
	mt.m.Set("jobs_running", &mt.running)
	mt.m.Set("jobs_done", expvar.Func(func() any { return mt.done.Value() }))
	mt.m.Set("jobs_failed", expvar.Func(func() any { return mt.failed.Value() }))
	mt.m.Set("jobs_canceled", expvar.Func(func() any { return mt.canceled.Value() }))
	mt.m.Set("jobs_deduped", expvar.Func(func() any { return mt.deduped.Value() }))
	mt.m.Set("jobs_rejected", expvar.Func(func() any { return mt.rejected.Value() }))
	mt.m.Set("campaign_cells_total", expvar.Func(func() any { return mt.campaignCells.Value() }))
	mt.m.Set("campaign_cells_deduped_total", expvar.Func(func() any { return mt.campaignCellsDeduped.Value() }))
	mt.m.Set("cache_hits", expvar.Func(func() any { return mt.cacheHits() }))
	mt.m.Set("cache_misses", expvar.Func(func() any { return s.runner.Stats().Executions }))
	mt.m.Set("cache_hit_ratio", expvar.Func(func() any { return mt.hitRatio() }))
	mt.m.Set("sim_seconds_served", &mt.simSeconds)
	mt.m.Set("store_records", expvar.Func(func() any { return s.store.Len() }))
	mt.m.Set("store_hits", expvar.Func(func() any { return s.runner.Stats().Hits }))
	mt.m.Set("store_served_jobs", expvar.Func(func() any { return mt.storeServed.Value() }))
	mt.m.Set("local_executions", expvar.Func(func() any { return s.localExecs.Load() }))
	mt.m.Set("cluster_routed", expvar.Func(func() any { return mt.clusterRouted.Value() }))
	mt.m.Set("cluster_forwarded", expvar.Func(func() any { return mt.clusterForwarded.Value() }))
	mt.m.Set("cluster_requeued", expvar.Func(func() any { return mt.clusterRequeued.Value() }))
	mt.m.Set("cluster_compute_served", expvar.Func(func() any { return mt.clusterServed.Value() }))
	mt.m.Set("cluster_nodes", expvar.Func(func() any {
		if s.cluster == nil || s.cluster.members == nil {
			return 0
		}
		return s.cluster.members.AliveCount()
	}))
	return mt
}

// cacheHits counts every request for simulation work that was answered
// without running one: POSTs deduplicated onto a live or finished job,
// plus the runner's store hits and singleflight joins.
func (mt *metrics) cacheHits() uint64 {
	st := mt.srv.runner.Stats()
	return mt.deduped.Value() + st.Hits + st.Joins
}

func (mt *metrics) hitRatio() float64 {
	hits := float64(mt.cacheHits())
	misses := float64(mt.srv.runner.Stats().Executions)
	if hits+misses == 0 {
		return 0.0
	}
	return hits / (hits + misses)
}

func (mt *metrics) jobQueued()   { mt.queued.Inc() }
func (mt *metrics) dedupHit()    { mt.deduped.Inc() }
func (mt *metrics) rejectedHit() { mt.rejected.Inc() }

// jobServedFromStore records a submitted job the durable store
// answered: it finished without ever running, so it counts as a dedup
// hit and a completion but never touches the running gauge.
func (mt *metrics) jobServedFromStore(simSeconds float64) {
	mt.deduped.Inc()
	mt.storeServed.Inc()
	mt.done.Inc()
	mt.simSeconds.Add(simSeconds)
}

// ensureNodeGauges registers the per-node cluster gauges on first
// registration of a worker id (the registry dedupes by series, so
// re-registration is a no-op and the first closure stays installed).
func (mt *metrics) ensureNodeGauges(id string) {
	members := mt.srv.cluster.members
	mt.reg.GaugeFunc("ossimd_cluster_node_queue_depth",
		"last reported job-queue depth, by worker", func() float64 {
			for _, n := range members.Snapshot() {
				if n.ID == id {
					return float64(n.Stats.QueueDepth)
				}
			}
			return 0
		}, obs.L("node", id))
	mt.reg.GaugeFunc("ossimd_cluster_node_executions",
		"last reported simulation executions, by worker", func() float64 {
			for _, n := range members.Snapshot() {
				if n.ID == id {
					return float64(n.Stats.Executions)
				}
			}
			return 0
		}, obs.L("node", id))
}

func (mt *metrics) jobStarted(queueWait time.Duration) {
	mt.running.Add(1)
	mt.queueWait.ObserveDuration(queueWait)
}

// observeRunStages records one actual simulation execution's stage
// durations. It is installed as core.RunConfig.OnStages, which fires
// only when a simulation really ran — cached and deduplicated results
// do not re-observe stale timings. A stage that did not occur (Stream
// on a single-round run) is skipped rather than logged as a zero.
func (mt *metrics) observeRunStages(st core.StageTimings) {
	if st.Build > 0 {
		mt.stage["build"].ObserveDuration(st.Build)
	}
	if st.Stream > 0 {
		mt.stage["stream"].ObserveDuration(st.Stream)
	}
	if st.Simulate > 0 {
		mt.stage["simulate"].ObserveDuration(st.Simulate)
	}
}

// observeRender records the result-rendering span of one completed
// run or campaign (rendering always happens server-side, so unlike
// the other stages it is observed per job, not per execution).
func (mt *metrics) observeRender(d time.Duration) {
	mt.stage["render"].ObserveDuration(d)
}

// httpHist returns the request-latency histogram of one endpoint,
// created on first use so the exposition lists only routes that exist.
func (mt *metrics) httpHist(endpoint string) *obs.Histogram {
	return mt.reg.Histogram("ossimd_http_request_seconds",
		"HTTP handler latency, by endpoint", obs.DurationBuckets(), obs.L("endpoint", endpoint))
}

// campaignFinished records one completed campaign: every grid cell it
// served, how many of them were credited from a duplicate cell's
// simulation, and the grid's wall clock.
func (mt *metrics) campaignFinished(cells, unique int, elapsed time.Duration) {
	mt.campaignCells.Add(uint64(cells))
	mt.campaignCellsDeduped.Add(uint64(cells - unique))
	mt.campaignDur.ObserveDuration(elapsed)
}

// jobFinished records a terminal job; simSeconds is the simulated time
// a done job's result covers.
func (mt *metrics) jobFinished(j *Job, simSeconds float64) {
	switch j.State() {
	case JobDone:
		mt.running.Add(-1)
		mt.done.Inc()
		mt.simSeconds.Add(simSeconds)
	case JobFailed:
		mt.running.Add(-1)
		mt.failed.Inc()
	case JobCanceled:
		// Drain-canceled jobs never started; a client-canceled campaign
		// did, and its worker slot is free again.
		if j.Started() {
			mt.running.Add(-1)
		}
		mt.canceled.Inc()
	}
}

// wantsPrometheus decides the exposition format of GET /v1/metrics:
// JSON stays the default; ?format=prometheus or a text/plain /
// OpenMetrics Accept header (what a Prometheus scraper sends) selects
// the text exposition.
func wantsPrometheus(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prometheus":
		return true
	case "json":
		return false
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") ||
		strings.Contains(accept, "application/openmetrics-text")
}

// handler serves GET /v1/metrics: expvar-style JSON by default, the
// Prometheus text exposition under content negotiation.
func (mt *metrics) handler(w http.ResponseWriter, r *http.Request) {
	if wantsPrometheus(r) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = mt.reg.WritePrometheus(w)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Write([]byte("{"))
	first := true
	mt.m.Do(func(kv expvar.KeyValue) {
		if !first {
			w.Write([]byte(",\n"))
		}
		first = false
		w.Write([]byte("\"" + kv.Key + "\": " + kv.Value.String()))
	})
	w.Write([]byte("}\n"))
}

package server

import (
	"math"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"oscachesim/internal/core"
	"oscachesim/internal/obs"
)

// metrics is the daemon's observability surface: an obs.Registry —
// per-server, not process-global, because the test suite runs many
// servers in one process — filled from one declaration list, defs.
// GET /v1/metrics renders that list both ways: the flat JSON document
// earlier clients parse (every declaration with a JSON key) and, when
// the client asks for it, the registry's Prometheus text exposition
// (see handler). Series carry the ossimd_ prefix; the histograms
// (ossimd_run_stage_seconds{stage}, ossimd_queue_wait_seconds,
// ossimd_campaign_seconds, ossimd_http_request_seconds{endpoint}) and
// the coordinator's per-worker gauges exist only in the exposition.
type metrics struct {
	srv  *Server
	reg  *obs.Registry
	defs []metricDef

	queued, done, failed, canceled *obs.Counter
	deduped, rejected              *obs.Counter
	campaignCells                  *obs.Counter
	campaignCellsDeduped           *obs.Counter
	storeServed                    *obs.Counter
	clusterRouted                  *obs.Counter
	clusterForwarded               *obs.Counter
	clusterRequeued                *obs.Counter
	clusterServed                  *obs.Counter
	running                        atomic.Int64
	simSeconds                     atomic.Uint64 // float64 bits

	campaignDur *obs.Histogram

	queueWait *obs.Histogram
	stage     map[string]*obs.Histogram // by stage label
}

// metricDef declares one daemon metric once: its Prometheus family
// ("" for JSON only), help text, JSON key ("" for Prometheus only),
// and either the counter field it creates or the gauge it samples.
type metricDef struct {
	family, help, key string
	counter           **obs.Counter
	value             func() float64
}

func newMetrics(s *Server) *metrics {
	mt := &metrics{srv: s, reg: obs.NewRegistry()}
	nodes := "" // a family only a coordinator exposes
	if s.cluster.members != nil {
		nodes = "ossimd_cluster_nodes"
	}
	mt.defs = []metricDef{
		{"ossimd_queue_depth", "current FIFO occupancy", "queue_depth", nil,
			func() float64 { return float64(len(s.queue)) }},
		{"ossimd_queue_capacity", "configured queue bound", "queue_capacity", nil,
			func() float64 { return float64(cap(s.queue)) }},
		{"ossimd_workers", "worker-pool size", "workers", nil,
			func() float64 { return float64(s.opts.Workers) }},
		{"ossimd_jobs_queued_total", "jobs accepted into the queue", "jobs_queued", &mt.queued, nil},
		{"ossimd_jobs_running", "jobs currently simulating", "jobs_running", nil,
			func() float64 { return float64(mt.running.Load()) }},
		{"ossimd_jobs_done_total", "jobs finished successfully", "jobs_done", &mt.done, nil},
		{"ossimd_jobs_failed_total", "jobs finished with an error", "jobs_failed", &mt.failed, nil},
		{"ossimd_jobs_canceled_total", "jobs canceled by drain", "jobs_canceled", &mt.canceled, nil},
		{"ossimd_jobs_deduped_total", "POSTs answered by an existing job", "jobs_deduped", &mt.deduped, nil},
		{"ossimd_jobs_rejected_total", "POSTs answered 429", "jobs_rejected", &mt.rejected, nil},
		{"ossimd_campaign_cells_total", "grid cells served by completed campaigns",
			"campaign_cells_total", &mt.campaignCells, nil},
		{"ossimd_campaign_cells_deduped_total", "campaign cells credited from another cell's simulation",
			"campaign_cells_deduped_total", &mt.campaignCellsDeduped, nil},
		{"ossimd_cache_hits", "result-cache hits: deduped POSTs + runner hits and joins", "cache_hits", nil,
			func() float64 { return float64(mt.cacheHits()) }},
		{"ossimd_cache_misses", "runner compute calls, forwarded to a peer or simulated locally", "cache_misses", nil,
			func() float64 { return float64(s.runner.Stats().Executions) }},
		{"ossimd_cache_hit_ratio", "hits / (hits + misses), 0 when idle", "cache_hit_ratio", nil, mt.hitRatio},
		{"ossimd_sim_seconds_served", "total simulated seconds of completed jobs", "sim_seconds_served", nil,
			func() float64 { return math.Float64frombits(mt.simSeconds.Load()) }},
		{"ossimd_store_records", "distinct keys in the durable result store", "store_records", nil,
			func() float64 { return float64(s.store.Len()) }},
		{"ossimd_store_hits_total", "runner requests answered by the result store", "store_hits", nil,
			func() float64 { return float64(s.runner.Stats().Hits) }},
		{"ossimd_store_served_jobs_total", "submitted jobs materialized terminal straight from the store",
			"store_served_jobs", &mt.storeServed, nil},
		{"ossimd_store_replay_skipped", "corrupt or truncated records skipped at boot replay", "", nil,
			func() float64 {
				st := s.store.Stats()
				return float64(st.SkippedCorrupt + st.SkippedTruncated)
			}},
		{"ossimd_local_executions", "simulations this process actually ran", "local_executions", nil,
			func() float64 { return float64(s.localExecs.Load()) }},
		{"ossimd_cluster_routed_total", "unique configurations routed to the ring",
			"cluster_routed", &mt.clusterRouted, nil},
		{"ossimd_cluster_forwarded_total", "configurations computed by a peer on our behalf",
			"cluster_forwarded", &mt.clusterForwarded, nil},
		{"ossimd_cluster_requeued_total", "forwards re-queued to the next ring owner after a node failure",
			"cluster_requeued", &mt.clusterRequeued, nil},
		{"ossimd_cluster_compute_served_total", "forwarded compute requests this node answered",
			"cluster_compute_served", &mt.clusterServed, nil},
		{nodes, "workers currently in the ring", "cluster_nodes", nil, func() float64 {
			if m := s.cluster.members; m != nil {
				return float64(m.AliveCount())
			}
			return 0
		}},
	}
	for i := range mt.defs {
		d := &mt.defs[i]
		switch {
		case d.counter != nil:
			c := mt.reg.Counter(d.family, d.help)
			*d.counter = c
			d.value = func() float64 { return float64(c.Value()) }
		case d.family != "":
			mt.reg.GaugeFunc(d.family, d.help, d.value)
		}
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
	return mt
}

// addSimSeconds adds to the simulated seconds served.
func (mt *metrics) addSimSeconds(v float64) {
	for {
		old := mt.simSeconds.Load()
		if mt.simSeconds.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
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

// jobServedFromStore records a submitted job the durable store
// answered: it finished without ever running, so it counts as a dedup
// hit and a completion but never touches the running gauge.
func (mt *metrics) jobServedFromStore(simSeconds float64) {
	mt.deduped.Inc()
	mt.storeServed.Inc()
	mt.done.Inc()
	mt.addSimSeconds(simSeconds)
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
// durations (Outcome.Stages). Server.executeLocal calls it once per
// local simulation that succeeds, so cached, deduplicated and
// forwarded results do not re-observe stale timings. A stage that did
// not occur (Stream on a single-round run) is skipped rather than
// logged as a zero.
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
		mt.addSimSeconds(simSeconds)
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

// handler serves GET /v1/metrics: the flat JSON document by default,
// the Prometheus text exposition under content negotiation.
func (mt *metrics) handler(w http.ResponseWriter, r *http.Request) {
	if wantsPrometheus(r) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = mt.reg.WritePrometheus(w)
		return
	}
	doc := make(map[string]float64, len(mt.defs))
	for _, d := range mt.defs {
		if d.key != "" {
			doc[d.key] = d.value()
		}
	}
	writeJSON(w, http.StatusOK, doc)
}

package server

import (
	"context"
	"errors"
	"sync"
	"time"

	"oscachesim/internal/campaign"
	"oscachesim/internal/core"
	"oscachesim/internal/sim"
	"oscachesim/internal/stats"
)

// cpuHz is the simulated clock rate (the paper's 200-MHz processors);
// it converts simulated cycles to sim-seconds for the metrics.
const cpuHz = 200e6

// JobState is the lifecycle state of a job.
type JobState string

const (
	// JobQueued: accepted, waiting for a worker.
	JobQueued JobState = "queued"
	// JobRunning: a worker is simulating.
	JobRunning JobState = "running"
	// JobDone: finished successfully; its result is in the store.
	JobDone JobState = "done"
	// JobFailed: finished with an error; Error is set.
	JobFailed JobState = "failed"
	// JobCanceled: drained from the queue at shutdown, or canceled by
	// the client (DELETE) — possibly mid-grid, keeping partial results.
	JobCanceled JobState = "canceled"
)

// terminal reports whether the state is final.
func (s JobState) terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// Job is one unit of queued simulation work: a single run or a
// campaign. A job is created by an accepted POST, executed by exactly
// one worker, and observed concurrently by status and stream handlers.
// A job holds a lifecycle and the key of its result, never the result
// itself: the store holds that, and every view decodes it from there.
type Job struct {
	// Immutable after creation.
	ID      string
	Kind    string // "run" or "campaign"
	Key     string // canonical content address (deduplication key)
	Timeout time.Duration
	Request any            // the decoded request body, echoed in status
	Cfg     core.RunConfig // the configuration (Kind == "run")

	// Campaign plan and report defaults (Kind == "campaign").
	Plan    *campaign.Plan
	Camp    *campaign.Progress
	RowAxis string
	Diff    *DiffSpec

	// Progress is a run job's feed, written by the simulation and read
	// locklessly by the stream handler (Kind == "run").
	Progress *sim.Progress

	// done closes when the job reaches a terminal state.
	done chan struct{}

	mu       sync.Mutex
	state    JobState
	created  time.Time
	started  time.Time
	finished time.Time
	err      string
	// kept holds, for a campaign canceled mid-grid, the indices of the
	// cells that completed before the cancel (non-nil, possibly empty);
	// their results are the cells' run records in the store.
	kept   []int
	stages *StageView
	// cancelFn aborts the running job's context; cancelAsked records
	// a DELETE that raced ahead of the worker arming it.
	cancelFn    context.CancelCauseFunc
	cancelAsked bool
}

// newJob builds a queued job.
func newJob(id, kind, key string, timeout time.Duration) *Job {
	return &Job{
		ID:      id,
		Kind:    kind,
		Key:     key,
		Timeout: timeout,
		done:    make(chan struct{}),
		state:   JobQueued,
		created: time.Now(),
	}
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// State returns the current state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Started reports whether a worker ever picked the job up.
func (j *Job) Started() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return !j.started.IsZero()
}

// setRunning marks the job running and returns its queue wait — the
// time between acceptance and a worker picking it up. It reports false
// when the job was canceled while queued (the worker must skip it).
func (j *Job) setRunning() (time.Duration, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobQueued {
		return 0, false
	}
	j.state = JobRunning
	j.started = time.Now()
	return j.started.Sub(j.created), true
}

// finish completes a job. Success lands in state "done" with the
// job's stage timings. A client cancellation (errClientCanceled) lands
// in "canceled", where a campaign keeps kept, the indices of the cells
// that completed before it. Any other error fails the job.
func (j *Job) finish(err error, stages *StageView, kept []int) {
	j.mu.Lock()
	j.finished = time.Now()
	switch {
	case err == nil:
		j.state = JobDone
		j.stages = stages
	case errors.Is(err, errClientCanceled):
		j.state = JobCanceled
		j.err = errClientCanceled.Error()
		j.kept = kept
	default:
		j.state = JobFailed
		j.err = err.Error()
	}
	j.mu.Unlock()
	close(j.done)
}

// cancelQueued atomically cancels the job if no worker has picked it
// up yet; it reports whether the transition happened. Used both by the
// shutdown drain and by client cancellation of queued jobs.
func (j *Job) cancelQueued(reason string) bool {
	j.mu.Lock()
	if j.state != JobQueued {
		j.mu.Unlock()
		return false
	}
	j.finished = time.Now()
	j.state = JobCanceled
	j.err = reason
	j.mu.Unlock()
	close(j.done)
	return true
}

// armCancel installs the running job's cancel function. A DELETE that
// arrived before the worker armed it fires immediately.
func (j *Job) armCancel(fn context.CancelCauseFunc) {
	j.mu.Lock()
	j.cancelFn = fn
	pending := j.cancelAsked
	j.mu.Unlock()
	if pending {
		fn(errClientCanceled)
	}
}

// signalCancel asks a running job to stop (or records the ask for
// armCancel if the worker has not armed cancellation yet).
func (j *Job) signalCancel() {
	j.mu.Lock()
	fn := j.cancelFn
	if fn == nil {
		j.cancelAsked = true
	}
	j.mu.Unlock()
	if fn != nil {
		fn(errClientCanceled)
	}
}

// RunResult is the JSON summary of one completed simulation.
type RunResult struct {
	Workload        string  `json:"workload"`
	System          string  `json:"system"`
	Refs            uint64  `json:"refs"`
	Cycles          uint64  `json:"cycles"`
	OSCycles        uint64  `json:"os_cycles"`
	OSTimeShare     float64 `json:"os_time_share"`
	DReads          uint64  `json:"d_reads"`
	DReadMisses     uint64  `json:"d_read_misses"`
	D1MissRate      float64 `json:"d1_miss_rate"`
	OSReadMisses    uint64  `json:"os_read_misses"`
	BusTransactions uint64  `json:"bus_transactions"`
	BusBytes        uint64  `json:"bus_bytes"`
	SimSeconds      float64 `json:"sim_seconds"`
}

// summarize renders an outcome as the API's result payload.
func summarize(o *core.Outcome) *RunResult {
	c := o.Counters
	return &RunResult{
		Workload:        string(o.Config.Workload),
		System:          o.Config.System.String(),
		Refs:            o.Refs,
		Cycles:          c.Cycles,
		OSCycles:        c.OSTime(),
		OSTimeShare:     stats.Ratio(c.OSTime(), c.TotalTime()),
		DReads:          c.TotalDReads(),
		DReadMisses:     c.TotalDReadMisses(),
		D1MissRate:      c.D1MissRate(),
		OSReadMisses:    c.OSDReadMisses(),
		BusTransactions: c.Bus.TotalTransactions(),
		BusBytes:        c.Bus.TotalBytes(),
		SimSeconds:      float64(c.Cycles) / cpuHz,
	}
}

// StageView is the JSON rendering of a run's wall-clock decomposition
// (core.StageTimings). Every run builds round 0 before it simulates; a
// run of more than one round also streams the rest, overlapped with
// simulation, which is why TotalSeconds excludes stream time. For a
// campaign job the fields are sums over the executions behind its
// unique configurations: one served from the store adds nothing, one
// that joined another job's simulation in flight adds that execution
// (as a run job's stages do).
type StageView struct {
	BuildSeconds    float64 `json:"build_seconds,omitempty"`
	StreamSeconds   float64 `json:"stream_seconds,omitempty"`
	SimulateSeconds float64 `json:"simulate_seconds,omitempty"`
	RenderSeconds   float64 `json:"render_seconds,omitempty"`
	TotalSeconds    float64 `json:"total_seconds"`
	// GenStalls and GenStallSeconds are a run job's backpressure: how
	// often (and for how long) its trace producer blocked on a full
	// pipeline queue. They describe the execution, not the result, so
	// they live here and not in the stored record; absent when the
	// producer never blocked (always so for a single-round run).
	GenStalls       uint64  `json:"gen_stalls,omitempty"`
	GenStallSeconds float64 `json:"gen_stall_seconds,omitempty"`
}

// stageView renders stage timings for the API.
func stageView(t core.StageTimings) *StageView {
	return &StageView{
		BuildSeconds:    t.Build.Seconds(),
		StreamSeconds:   t.Stream.Seconds(),
		SimulateSeconds: t.Simulate.Seconds(),
		RenderSeconds:   t.Render.Seconds(),
		TotalSeconds:    t.Total().Seconds(),
	}
}

// ProgressView is the progress section of a job's JSON view. GenRefs
// tracks the workload generator: equal to TotalRefs for a single-round
// run, advancing between Refs and TotalRefs while a multi-round run's
// producer works ahead of its simulation.
type ProgressView struct {
	Refs         uint64  `json:"refs"`
	GenRefs      uint64  `json:"gen_refs"`
	TotalRefs    uint64  `json:"total_refs"`
	Fraction     float64 `json:"fraction"`
	RoundsDone   int     `json:"rounds_done"`
	RoundsTotal  int     `json:"rounds_total"`
	OSReadMisses uint64  `json:"os_read_misses"`
	Cycles       uint64  `json:"cycles"`
	// Campaign aggregate (Kind == "campaign"): grid cells credited and
	// unique configurations executed, plus an ETA extrapolated from the
	// unique-work completion rate.
	CellsDone   int     `json:"cells_done,omitempty"`
	CellsTotal  int     `json:"cells_total,omitempty"`
	UniqueDone  int     `json:"unique_done,omitempty"`
	UniqueTotal int     `json:"unique_total,omitempty"`
	ETASeconds  float64 `json:"eta_seconds,omitempty"`
}

// JobView is the JSON rendering of a job returned by the status,
// submit and stream endpoints.
type JobView struct {
	ID         string          `json:"id"`
	Kind       string          `json:"kind"`
	State      JobState        `json:"state"`
	Deduped    bool            `json:"deduped,omitempty"`
	Key        string          `json:"key"`
	CreatedAt  time.Time       `json:"created_at"`
	StartedAt  *time.Time      `json:"started_at,omitempty"`
	FinishedAt *time.Time      `json:"finished_at,omitempty"`
	Request    any             `json:"request,omitempty"`
	Progress   *ProgressView   `json:"progress,omitempty"`
	Result     *RunResult      `json:"result,omitempty"`
	Campaign   *CampaignResult `json:"campaign,omitempty"`
	// Stages is the completed job's wall-clock decomposition; for a
	// deduplicated job it reports the execution that actually ran.
	Stages *StageView `json:"stages,omitempty"`
	// ResultURL is the durable result document's address
	// (/v1/results/{key}), present once the job is done — it keeps
	// answering after this job ages out or the daemon restarts.
	ResultURL string `json:"result_url,omitempty"`
	// QueueWaitSeconds is the time the job spent queued before a worker
	// picked it up (present once the job has started).
	QueueWaitSeconds float64 `json:"queue_wait_seconds,omitempty"`
	Error            string  `json:"error,omitempty"`
}

// view renders the job's current state, its result decoded from the
// store.
func (s *Server) view(j *Job, deduped bool) *JobView {
	v, kept := j.status(deduped)
	if r, ok := s.result(j, v.State, kept); ok {
		v.Result, v.Campaign = r.run, r.camp
	}
	return v
}

// status renders the job's lifecycle and progress, returning with it
// the cells a canceled campaign kept; Server.view adds the result.
func (j *Job) status(deduped bool) (*JobView, []int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := &JobView{
		ID:        j.ID,
		Kind:      j.Kind,
		State:     j.state,
		Deduped:   deduped,
		Key:       j.Key,
		CreatedAt: j.created,
		Request:   j.Request,
		Stages:    j.stages,
		Error:     j.err,
	}
	if j.state == JobDone {
		v.ResultURL = "/v1/results/" + j.Key
	}
	if !j.started.IsZero() {
		t := j.started
		v.StartedAt = &t
		v.QueueWaitSeconds = j.started.Sub(j.created).Seconds()
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.FinishedAt = &t
	}
	pv := &ProgressView{}
	switch j.Kind {
	case "run":
		snap := j.Progress.Snapshot()
		rt := j.Cfg.Rounds()
		pv = &ProgressView{
			Refs:         snap.Refs,
			GenRefs:      snap.GenRefs,
			TotalRefs:    snap.TotalRefs,
			Fraction:     snap.Fraction(),
			RoundsTotal:  rt,
			OSReadMisses: snap.OSReadMisses,
			Cycles:       snap.Cycles,
		}
		if j.state == JobDone {
			pv.Fraction = 1
		}
		pv.RoundsDone = int(pv.Fraction * float64(rt))
	case "campaign":
		// A campaign's progress is its grid aggregate; the per-run
		// fields stay zero.
		cs := j.Camp.Snapshot()
		pv.CellsDone = cs.CellsDone
		pv.CellsTotal = cs.CellsTotal
		pv.UniqueDone = cs.UniqueDone
		pv.UniqueTotal = cs.UniqueTotal
		if pv.CellsTotal == 0 {
			// Not started yet: the plan still knows the totals.
			pv.CellsTotal = len(j.Plan.Cells)
			pv.UniqueTotal = len(j.Plan.Unique)
		}
		pv.Fraction = 0
		if pv.CellsTotal > 0 {
			pv.Fraction = float64(pv.CellsDone) / float64(pv.CellsTotal)
		}
		if j.state == JobDone {
			pv.Fraction = 1
		}
		if cs.ETA > 0 {
			pv.ETASeconds = cs.ETA.Seconds()
		}
	}
	v.Progress = pv
	return v, j.kept
}

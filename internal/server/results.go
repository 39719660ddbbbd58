package server

// This file is the /v1/results resource: completed results as
// first-class content-addressed documents served straight from the
// durable store, independent of any job's lifetime — the key a job
// view carries (and links via result_url) keeps answering after the
// job ages out, after a restart, and on any node holding the record.
// It also holds the one decoder of stored results: the store is the
// only holder of a result, and job views, campaign reports, this
// resource and the store-served submit path all render it through
// decode.

import (
	"encoding/json"
	"net/http"
	"time"

	"oscachesim/internal/campaign"
	"oscachesim/internal/core"
	"oscachesim/internal/store"
)

// ResultView is the body of GET /v1/results/{key}: the stored result
// document. Exactly one of Result, Campaign is set, per Kind.
type ResultView struct {
	Key        string          `json:"key"`
	Kind       string          `json:"kind"`
	SimVersion string          `json:"sim_version"`
	StoredAt   time.Time       `json:"stored_at"`
	Result     *RunResult      `json:"result,omitempty"`
	Campaign   *CampaignResult `json:"campaign,omitempty"`
}

// decoded is a stored result rendered for the API: a run's summary, or
// a campaign's result plus its cells' outcomes, which the report
// projects onto its grid; simSeconds is the simulated time it covers.
type decoded struct {
	run        *RunResult
	camp       *CampaignResult
	cells      []campaign.CellOutcome
	simSeconds float64
}

// decode is the one record decoder: a "run" record renders as its
// summary, and a "campaign" record's cells are decoded from their run
// records. ok is false for a missing record, a record of a retired
// kind (a "sweep" left in an older results.log), and a campaign with a
// cell whose run record is missing or unreadable.
func (s *Server) decode(rec *store.Record) (*decoded, bool) {
	if rec == nil {
		return nil, false
	}
	switch rec.Kind {
	case "run":
		o, err := rec.Outcome()
		if err != nil {
			return nil, false
		}
		r := summarize(o)
		return &decoded{run: r, simSeconds: r.SimSeconds}, true
	case "campaign":
		var view struct{ Result *CampaignResult }
		if err := json.Unmarshal(rec.View, &view); err != nil || view.Result == nil {
			return nil, false
		}
		return s.decodeCells(view.Result)
	}
	return nil, false
}

// decodeCells completes a campaign result whose cells carry only their
// coordinates and keys: each cell's result is decoded from its run
// record.
func (s *Server) decodeCells(res *CampaignResult) (*decoded, bool) {
	d := &decoded{camp: res, cells: make([]campaign.CellOutcome, len(res.Cells))}
	for i := range res.Cells {
		c := &res.Cells[i]
		o, err := s.store.Get(c.Key).Outcome()
		if err != nil {
			return nil, false
		}
		c.Result = summarize(o)
		d.simSeconds += c.Result.SimSeconds
		d.cells[i] = campaign.CellOutcome{Cell: campaign.Cell{Coords: c.Coords, Key: c.Key}, Outcome: o}
	}
	return d, true
}

// result decodes the result of a job in state: a done job's, or for a
// campaign canceled mid-grid the cells it kept. A campaign's cells are
// its plan's. ok is false when the job has no result.
func (s *Server) result(j *Job, state JobState, kept []int) (*decoded, bool) {
	switch {
	case j.Kind == "campaign" && (state == JobDone || kept != nil):
		return s.decodeCells(campaignResult(j.Plan, kept))
	case state == JobDone:
		return s.decode(s.store.Get(j.Key))
	}
	return nil, false
}

// putCampaignRecord stores a done campaign under its key, so a
// restarted daemon answers the same grid from the store. The record's
// view is {"result": the campaign result without its cells' results},
// which are the cells' own run records. Records written before also
// carry each cell's result and a "grid" projection; decode ignores
// both.
func (s *Server) putCampaignRecord(job *Job) {
	raw, err := json.Marshal(map[string]any{"result": campaignResult(job.Plan, nil)})
	if err != nil {
		return
	}
	_ = s.store.Put(&store.Record{
		Key:        job.Key,
		Kind:       "campaign",
		SimVersion: core.SimVersion,
		StoredAt:   time.Now().UTC(),
		View:       raw,
	})
}

// handleResult serves GET and HEAD /v1/results/{key}. HEAD is the
// cheap existence probe — a client holding a key (from a job view, a
// peer, a previous process) can ask "is this computed anywhere?"
// without transferring the result.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	rec := s.store.Get(r.PathValue("key"))
	d, ok := s.decode(rec)
	if !ok {
		if r.Method == http.MethodHead {
			w.WriteHeader(http.StatusNotFound)
			return
		}
		writeError(w, http.StatusNotFound, "not_found", "no stored result under this key")
		return
	}
	if r.Method == http.MethodHead {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		return
	}
	writeJSON(w, http.StatusOK, &ResultView{
		Key:        rec.Key,
		Kind:       rec.Kind,
		SimVersion: rec.SimVersion,
		StoredAt:   rec.StoredAt,
		Result:     d.run,
		Campaign:   d.camp,
	})
}

// jobFromStoreLocked materializes a submitted job directly into its
// terminal state from a durable record — the warm layer of the dedup
// chain between the live byKey index and actual execution. Called
// under s.mu with the byKey lookup already missed; it reports whether
// the store answered. A record that does not decode (a campaign
// missing a cell's run record) is a miss, so the job runs and
// recomputes what is missing. The job never touches the queue: it is
// registered, finished and indexed in one step, so a restarted daemon
// answers a previously computed configuration with "deduped": true
// and zero simulation.
func (s *Server) jobFromStoreLocked(job *Job) bool {
	rec := s.store.Get(job.Key)
	if rec == nil || rec.Kind != job.Kind {
		return false
	}
	d, ok := s.decode(rec)
	if !ok {
		return false
	}
	job.finish(nil, nil, nil)
	s.seq++
	job.ID = jobID(s.seq)
	s.jobs[job.ID] = job
	s.byKey[job.Key] = job
	s.order = append(s.order, job)
	s.metrics.jobServedFromStore(d.simSeconds)
	return true
}

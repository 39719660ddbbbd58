package server

// This file is the /v1/results resource: completed results as
// first-class content-addressed documents served straight from the
// durable store, independent of any job's lifetime — the key a job
// view carries (and links via result_url) keeps answering after the
// job ages out, after a restart, and on any node holding the record.

import (
	"encoding/json"
	"net/http"
	"time"

	"oscachesim/internal/report"
	"oscachesim/internal/store"
)

// storedCampaignView is the View payload of a "campaign" store record:
// the API result plus the grid projection the report endpoint renders
// from.
type storedCampaignView struct {
	Result *CampaignResult   `json:"result"`
	Grid   []report.GridCell `json:"grid,omitempty"`
}

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

// resultView renders a store record as the API document; ok is false
// when the record cannot be rendered (a corrupt view payload).
func resultView(rec *store.Record) (*ResultView, bool) {
	v := &ResultView{
		Key:        rec.Key,
		Kind:       rec.Kind,
		SimVersion: rec.SimVersion,
		StoredAt:   rec.StoredAt,
	}
	switch rec.Kind {
	case "run":
		o, err := rec.Outcome()
		if err != nil {
			return nil, false
		}
		v.Result = summarize(o)
	case "campaign":
		var sv storedCampaignView
		if err := json.Unmarshal(rec.View, &sv); err != nil || sv.Result == nil {
			return nil, false
		}
		v.Campaign = sv.Result
	default:
		return nil, false
	}
	return v, true
}

// handleResult serves GET and HEAD /v1/results/{key}. HEAD is the
// cheap existence probe — a client holding a key (from a job view, a
// peer, a previous process) can ask "is this computed anywhere?"
// without transferring the result.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	rec := s.store.Get(r.PathValue("key"))
	if rec != nil && rec.Kind != "run" && rec.Kind != "campaign" {
		// A record of a retired job kind (a "sweep" left in an older
		// results.log) is not servable: answer as if it were absent.
		rec = nil
	}
	if rec == nil {
		if r.Method == http.MethodHead {
			w.WriteHeader(http.StatusNotFound)
			return
		}
		writeError(w, http.StatusNotFound, "not_found", "no stored result under this key")
		return
	}
	v, ok := resultView(rec)
	if !ok {
		writeError(w, http.StatusInternalServerError, "internal", "stored record is unreadable")
		return
	}
	if r.Method == http.MethodHead {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// jobFromStore materializes a submitted job directly into its terminal
// state from a durable record — the warm layer of the dedup chain
// between the live byKey index and actual execution. Called under
// s.mu with the byKey lookup already missed; it reports whether the
// store answered. The job never touches the queue: it is registered,
// finished and indexed in one step, so a restarted daemon answers a
// previously computed configuration with "deduped": true and zero
// simulation.
func (s *Server) jobFromStoreLocked(job *Job) bool {
	rec := s.store.Get(job.Key)
	if rec == nil || rec.Kind != job.Kind {
		return false
	}
	switch job.Kind {
	case "run":
		o, err := rec.Outcome()
		if err != nil {
			return false
		}
		job.finishRun(summarize(o), nil, nil)
	case "campaign":
		var sv storedCampaignView
		if err := json.Unmarshal(rec.View, &sv); err != nil || sv.Result == nil {
			return false
		}
		job.finishCampaign(sv.Result, sv.Grid, nil, nil)
	default:
		return false
	}
	s.seq++
	job.ID = jobID(s.seq)
	s.jobs[job.ID] = job
	s.byKey[job.Key] = job
	s.order = append(s.order, job)
	s.metrics.jobServedFromStore(job)
	return true
}

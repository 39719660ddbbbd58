package server

import (
	"encoding/json"
	"net/http"
	"time"
)

// StreamFrame is one NDJSON line of GET /v1/runs/{id}/stream: periodic
// "progress" frames while the job is queued or running, then exactly
// one "result" frame carrying the job's final view.
type StreamFrame struct {
	Type string    `json:"type"` // "progress" or "result"
	Time time.Time `json:"time"`
	Job  *JobView  `json:"job"`
}

// handleStream streams a job's progress as NDJSON until it reaches a
// terminal state (or the client goes away). Each frame is flushed
// immediately, so a curl reader sees live scheduling-round and
// miss-counter movement sampled from the running simulation. Ids of
// another kind than kind ("" accepts any) answer 404.
func (s *Server) handleStream(kind string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		job, ok := s.lookupKind(r.PathValue("id"), kind)
		if !ok {
			writeError(w, http.StatusNotFound, "not_found", "unknown job")
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Header().Set("Cache-Control", "no-cache")
		w.WriteHeader(http.StatusOK)
		flusher, canFlush := w.(http.Flusher)
		enc := json.NewEncoder(w)
		enc.SetEscapeHTML(false)

		emit := func(typ string) bool {
			err := enc.Encode(StreamFrame{Type: typ, Time: time.Now(), Job: s.view(job, false)})
			if err != nil {
				return false
			}
			if canFlush {
				flusher.Flush()
			}
			return true
		}

		ticker := time.NewTicker(s.opts.StreamInterval)
		defer ticker.Stop()
		for {
			if job.State().terminal() {
				emit("result")
				return
			}
			if !emit("progress") {
				return
			}
			select {
			case <-job.Done():
			case <-ticker.C:
			case <-r.Context().Done():
				return
			}
		}
	}
}

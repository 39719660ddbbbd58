package server

// This file is the collection side of the v1 resources: GET /v1/runs
// and /v1/campaigns list their jobs in submission order
// with an optional state filter and cursor pagination. The cursor is
// the last returned job's id — stable because jobs are append-only and
// never renumbered within a server's lifetime.

import (
	"net/http"
	"strconv"
	"time"
)

// Listing bounds.
const (
	defaultListLimit = 50
	maxListLimit     = 200
)

// JobSummary is one row of a collection listing — the identity and
// lifecycle of a job without its (possibly large) request and result
// payloads; fetch the job resource for those.
type JobSummary struct {
	ID         string     `json:"id"`
	Kind       string     `json:"kind"`
	State      JobState   `json:"state"`
	Key        string     `json:"key"`
	CreatedAt  time.Time  `json:"created_at"`
	FinishedAt *time.Time `json:"finished_at,omitempty"`
	Error      string     `json:"error,omitempty"`
}

// JobList is the body of a collection listing. NextCursor, when set,
// is the cursor of the next page; absent on the last page.
type JobList struct {
	Jobs       []JobSummary `json:"jobs"`
	NextCursor string       `json:"next_cursor,omitempty"`
}

// summary renders the job's listing row.
func (j *Job) summary() JobSummary {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := JobSummary{
		ID:        j.ID,
		Kind:      j.Kind,
		State:     j.state,
		Key:       j.Key,
		CreatedAt: j.created,
		Error:     j.err,
	}
	if !j.finished.IsZero() {
		t := j.finished
		s.FinishedAt = &t
	}
	return s
}

// validListState reports whether a ?state= filter names a job state.
func validListState(s string) bool {
	switch JobState(s) {
	case JobQueued, JobRunning, JobDone, JobFailed, JobCanceled:
		return true
	}
	return false
}

// handleList returns the collection handler of one job kind.
func (s *Server) handleList(kind string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		stateFilter := q.Get("state")
		if stateFilter != "" && !validListState(stateFilter) {
			s.clientError(w, fieldErrf("state", stateFilter,
				"not a job state (queued, running, done, failed, canceled)"))
			return
		}
		limit := defaultListLimit
		if raw := q.Get("limit"); raw != "" {
			n, err := strconv.Atoi(raw)
			if err != nil || n < 1 {
				s.clientError(w, fieldErrf("limit", raw, "must be a positive integer"))
				return
			}
			if n > maxListLimit {
				n = maxListLimit
			}
			limit = n
		}
		cursor := q.Get("cursor")

		// Snapshot the submission order under the lock, then render
		// summaries outside it (each summary takes the job's own lock).
		s.mu.Lock()
		order := make([]*Job, len(s.order))
		copy(order, s.order)
		s.mu.Unlock()

		start := 0
		if cursor != "" {
			found := false
			for i, j := range order {
				if j.ID == cursor {
					start, found = i+1, true
					break
				}
			}
			if !found {
				s.clientError(w, fieldErrf("cursor", cursor, "unknown cursor"))
				return
			}
		}

		list := JobList{Jobs: []JobSummary{}}
		for _, j := range order[start:] {
			if j.Kind != kind {
				continue
			}
			sum := j.summary()
			if stateFilter != "" && string(sum.State) != stateFilter {
				continue
			}
			if len(list.Jobs) == limit {
				// One more match exists past the page: emit a cursor.
				list.NextCursor = list.Jobs[limit-1].ID
				break
			}
			list.Jobs = append(list.Jobs, sum)
		}
		writeJSON(w, http.StatusOK, list)
	}
}

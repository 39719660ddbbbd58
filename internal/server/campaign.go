package server

// This file is the /v1/campaigns resource: a declarative parameter
// grid (internal/campaign) submitted as one job, executed over the
// server's store-backed runner with duplicate cells planned once, streamed
// as aggregate progress, and rendered as a comparison report — the
// paper's Figure 3 layout at arbitrary geometry plus a benchdiff-style
// machine-readable axis diff.

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/http"

	"oscachesim/internal/campaign"
	"oscachesim/internal/core"
	"oscachesim/internal/report"
	"oscachesim/internal/sim"
	"oscachesim/internal/workload"
)

// maxCampaignCells bounds one campaign's expanded grid; a request
// whose cross product exceeds it is rejected with 400 before any cell
// is planned.
const maxCampaignCells = campaign.DefaultMaxCells

// errClientCanceled is the cancel cause of DELETE /v1/campaigns/{id}:
// it distinguishes a client cancellation (job state "canceled", partial
// cells kept) from a timeout or simulation failure (state "failed").
var errClientCanceled = errors.New("canceled by client")

// DiffSpec selects the campaign's machine-readable comparison.
type DiffSpec = campaign.Diff

// CampaignRequest is the body of POST /v1/campaigns: the shared
// workload selection and job options plus the grid axes. Every listed
// axis multiplies the cell count (bounded by maxCampaignCells); an
// omitted axis keeps the base machine's value. Exactly one workload
// source must be set: workloads (an axis of built-in profiles), the
// shared workload field, or a scenario.
type CampaignRequest struct {
	WorkloadSpec
	JobOptions
	// Workloads is the workload axis: several built-in profiles
	// compared in one campaign.
	Workloads []string `json:"workloads,omitempty"`
	// Systems is the optimization axis (at least one required).
	Systems []string `json:"systems"`
	// CPUs is the machine-width axis.
	CPUs []int `json:"cpus,omitempty"`
	// Coherence is the protocol axis ("snoop", "directory").
	Coherence []string `json:"coherence,omitempty"`
	// SizesKB sweeps the primary data cache size.
	SizesKB []uint64 `json:"sizes_kb,omitempty"`
	// LineSizes sweeps the L1 line size.
	LineSizes []uint64 `json:"line_sizes,omitempty"`
	// L2Line is the L2 line size during a line-size axis (0 keeps the
	// base machine's, raised to the swept L1 line when smaller).
	L2Line uint64 `json:"l2_line,omitempty"`
	// Sharers sweeps the scenario's sharing degree (requires scenario).
	Sharers []int `json:"sharers,omitempty"`
	// Machine optionally overrides the base machine at every cell.
	Machine *MachineSpec `json:"machine,omitempty"`
	// RowAxis selects the report's bar axis (default "system").
	RowAxis string `json:"row_axis,omitempty"`
	// Diff optionally requests the machine-readable axis comparison.
	Diff *DiffSpec `json:"diff,omitempty"`
}

// plan validates the request and expands it into a deduplicated
// execution plan plus the resolved report row axis. All failures
// satisfy isRequestError and, where attributable, carry a dotted field
// path.
func (cr *CampaignRequest) plan() (*campaign.Plan, string, error) {
	if err := cr.JobOptions.validate(); err != nil {
		return nil, "", err
	}
	g := campaign.Grid{
		L2Line:   cr.L2Line,
		Scale:    cr.Scale,
		Seed:     cr.Seed,
		MaxCells: maxCampaignCells,
		CPUs:     cr.CPUs,
		Sharers:  cr.Sharers,
	}
	switch {
	case len(cr.Workloads) > 0:
		if cr.Workload != "" || cr.Scenario != nil {
			return nil, "", fieldErrf("workloads", nil, "pass either workloads or workload/scenario, not both")
		}
		for i, name := range cr.Workloads {
			w, err := workload.ParseName(name)
			if err != nil {
				return nil, "", fieldErrf(fmt.Sprintf("workloads[%d]", i), name, "%v", err)
			}
			g.Workloads = append(g.Workloads, w)
		}
	default:
		w, spec, err := cr.WorkloadSpec.resolve(cr.Scale)
		if err != nil {
			return nil, "", err
		}
		if spec != nil {
			g.Scenario = spec
		} else {
			g.Workloads = []workload.Name{w}
		}
	}
	if len(cr.Systems) == 0 {
		return nil, "", fieldErrf("systems", nil, "campaign needs at least one system")
	}
	for i, name := range cr.Systems {
		sys, err := core.ParseSystem(name)
		if err != nil {
			return nil, "", fieldErrf(fmt.Sprintf("systems[%d]", i), name, "%v", err)
		}
		g.Systems = append(g.Systems, sys)
	}
	for i, name := range cr.Coherence {
		kind, err := sim.ParseCoherence(name)
		if err != nil {
			return nil, "", fieldErrf(fmt.Sprintf("coherence[%d]", i), name, "%v", err)
		}
		g.Coherence = append(g.Coherence, kind)
	}
	for i, kb := range cr.SizesKB {
		if kb == 0 || kb > maxCacheKB {
			return nil, "", fieldErrf(fmt.Sprintf("sizes_kb[%d]", i), kb, "KB out of range [1, %d]", maxCacheKB)
		}
	}
	for i, line := range cr.LineSizes {
		if line == 0 || line > maxLineBytes {
			return nil, "", fieldErrf(fmt.Sprintf("line_sizes[%d]", i), line, "out of range [1, %d]", maxLineBytes)
		}
	}
	g.L1SizesKB = cr.SizesKB
	g.LineSizes = cr.LineSizes
	if cr.Machine != nil {
		p, err := cr.Machine.toParams()
		if err != nil {
			return nil, "", err
		}
		g.Base = p
	}
	plan, err := campaign.NewPlan(g)
	if err != nil {
		return nil, "", err
	}
	row := cr.RowAxis
	if row == "" {
		row = campaign.AxisSystem
	}
	if err := plan.CheckSelection(row, cr.Diff, "row_axis", "diff."); err != nil {
		return nil, "", err
	}
	return plan, row, nil
}

// campaignKey is the campaign's content address: the ordered hash of
// its cells' canonical keys (each already embedding core.SimVersion)
// plus the report defaults, which are part of the stored result.
func campaignKey(p *campaign.Plan, row string, diff *DiffSpec) string {
	h := sha256.New()
	for _, c := range p.Cells {
		io.WriteString(h, c.Key)
		io.WriteString(h, "\n")
	}
	io.WriteString(h, "row="+row+"\n")
	if diff != nil {
		fmt.Fprintf(h, "diff=%s:%s:%s\n", diff.Axis, diff.From, diff.To)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// CampaignCell is one completed cell of a campaign result.
type CampaignCell struct {
	Coords map[string]string `json:"coords"`
	Key    string            `json:"key"`
	// Result is the cell's run record rendered; a stored campaign
	// record leaves it out.
	Result *RunResult `json:"result,omitempty"`
}

// CampaignResult is the JSON result of a campaign job. A canceled
// campaign keeps the cells that completed before the cancel, so
// CellsDone may trail CellsTotal.
type CampaignResult struct {
	CellsTotal  int            `json:"cells_total"`
	CellsDone   int            `json:"cells_done"`
	UniqueCells int            `json:"unique_cells"`
	Cells       []CampaignCell `json:"cells"`
}

// campaignResult is the result of plan's cells at idx — every cell
// when idx is nil — giving each cell's coordinates and key;
// decodeCells adds the results from the cells' run records.
func campaignResult(p *campaign.Plan, idx []int) *CampaignResult {
	res := &CampaignResult{CellsTotal: len(p.Cells), UniqueCells: len(p.Unique)}
	add := func(c campaign.Cell) {
		res.Cells = append(res.Cells, CampaignCell{Coords: c.Coords, Key: c.Key})
	}
	if idx == nil {
		for _, c := range p.Cells {
			add(c)
		}
	}
	for _, i := range idx {
		add(p.Cells[i])
	}
	res.CellsDone = len(res.Cells)
	return res
}

// keptCells returns the indices of plan's cells in completed, the
// partial grid (in cell order) of a campaign canceled mid-run; never
// nil.
func keptCells(p *campaign.Plan, completed []campaign.CellOutcome) []int {
	kept := []int{}
	for i, c := range p.Cells {
		if len(completed) > 0 && completed[0].Cell.Key == c.Key {
			kept = append(kept, i)
			completed = completed[1:]
		}
	}
	return kept
}

// handleCampaign accepts a parameter grid as one job.
func (s *Server) handleCampaign(w http.ResponseWriter, r *http.Request) {
	var cr CampaignRequest
	if err := decodeJSON(r.Body, &cr); err != nil {
		s.clientError(w, err)
		return
	}
	plan, row, err := cr.plan()
	if err != nil {
		s.clientError(w, err)
		return
	}
	job := newJob("", "campaign", "campaign:"+campaignKey(plan, row, cr.Diff), cr.timeout(s.opts.JobTimeout))
	job.Plan = plan
	job.Camp = &campaign.Progress{}
	job.RowAxis = row
	job.Diff = cr.Diff
	job.Request = &cr
	s.respondSubmit(w, job)
}

// lookupKind finds a job by id and kind; kind "" accepts any.
func (s *Server) lookupKind(id, kind string) (*Job, bool) {
	j, ok := s.lookup(id)
	if !ok || (kind != "" && j.Kind != kind) {
		return nil, false
	}
	return j, true
}

// handleJob reports one job's status, 404ing ids of other kinds so
// each resource's collection stays self-consistent. GET /v1/runs/{id}
// passes kind "" and answers any job, as the original status endpoint
// did.
func (s *Server) handleJob(kind string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		job, ok := s.lookupKind(r.PathValue("id"), kind)
		if !ok {
			writeError(w, http.StatusNotFound, "not_found", "unknown job")
			return
		}
		writeJSON(w, http.StatusOK, s.view(job, false))
	}
}

// handleCancel is the uniform DELETE /v1/{runs,campaigns}/{id}
// lifecycle verb: a queued job is canceled in place (200), a running
// one is signaled and winds down (202) — a campaign keeps the cells
// that already finished — and a terminal one is just reported (200).
func (s *Server) handleCancel(kind string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		job, ok := s.lookupKind(r.PathValue("id"), kind)
		if !ok {
			writeError(w, http.StatusNotFound, "not_found", "unknown job")
			return
		}
		status := http.StatusOK
		if s.cancel(job) {
			status = http.StatusAccepted
		}
		writeJSON(w, status, s.view(job, false))
	}
}

// cancel stops a job on its client's behalf: a queued job is canceled
// in place, a running one is signaled and winds down, a terminal one
// is left alone. It reports whether the job was signaled.
func (s *Server) cancel(job *Job) bool {
	for {
		switch st := job.State(); {
		case st.terminal():
			return false
		case st == JobQueued:
			if job.cancelQueued("canceled by client") {
				s.settle(job, 0)
				return false
			}
			// Lost the race with a worker: re-read the state.
		default:
			job.signalCancel()
			return true
		}
	}
}

// CampaignReport is the body of GET /v1/campaigns/{id}/report: the
// rendered comparison table, the optional machine-readable axis diff,
// and the raw grid cells for custom tooling.
type CampaignReport struct {
	ID          string            `json:"id"`
	State       JobState          `json:"state"`
	CellsTotal  int               `json:"cells_total"`
	CellsDone   int               `json:"cells_done"`
	UniqueCells int               `json:"unique_cells"`
	RowAxis     string            `json:"row_axis"`
	Table       string            `json:"table"`
	Diff        *DiffView         `json:"diff,omitempty"`
	Cells       []report.GridCell `json:"cells"`
}

// DiffView is the machine-readable comparison section of a report.
type DiffView struct {
	Axis    string           `json:"axis"`
	From    string           `json:"from"`
	To      string           `json:"to"`
	Metrics []string         `json:"metrics"`
	Rows    []report.DiffRow `json:"rows"`
}

// handleCampaignReport renders a finished (or canceled-with-results)
// campaign. Query params row_axis, diff_axis/diff_from/diff_to and
// format=text|json override the request's stored defaults per call —
// re-rendering a done campaign costs no simulation.
func (s *Server) handleCampaignReport(w http.ResponseWriter, r *http.Request) {
	job, ok := s.lookupKind(r.PathValue("id"), "campaign")
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", "unknown job")
		return
	}
	v, kept := job.status(false)
	d, ok := s.result(job, v.State, kept)
	if !ok {
		writeError(w, http.StatusConflict, "not_ready",
			"campaign has no results yet (state "+string(v.State)+")")
		return
	}
	res, grid := d.camp, campaign.GridCells(d.cells)
	q := r.URL.Query()
	row := q.Get("row_axis")
	if row == "" {
		row = job.RowAxis
	}
	diff := job.Diff
	if a := q.Get("diff_axis"); a != "" {
		diff = &DiffSpec{Axis: a, From: q.Get("diff_from"), To: q.Get("diff_to")}
	}
	if err := job.Plan.CheckSelection(row, diff, "row_axis", "diff_"); err != nil {
		s.clientError(w, err)
		return
	}
	var dv *DiffView
	if diff != nil {
		dv = &DiffView{
			Axis: diff.Axis, From: diff.From, To: diff.To, Metrics: campaign.DiffMetrics,
			Rows: report.DiffCells(grid, diff.Axis, diff.From, diff.To, campaign.DiffMetrics),
		}
	}
	title := fmt.Sprintf("campaign %s: OS time by %s (normalized per group)", job.ID, row)
	table := campaign.Chart(title, row, grid)
	if q.Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, table)
		if dv != nil {
			campaign.WriteDiffText(w, dv.Axis, dv.From, dv.To, dv.Rows)
		}
		return
	}
	writeJSON(w, http.StatusOK, CampaignReport{
		ID: job.ID, State: v.State,
		CellsTotal: res.CellsTotal, CellsDone: res.CellsDone, UniqueCells: res.UniqueCells,
		RowAxis: row, Table: table, Diff: dv, Cells: grid,
	})
}

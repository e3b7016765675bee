package serve

import (
	"fmt"
	"net/http"

	"repro/internal/dashboard"
)

func assessmentJSON(a dashboard.Assessment) AssessmentJSON {
	return AssessmentJSON{
		System:              a.System,
		Ranks:               a.Ranks,
		MFLUPS:              a.MFLUPS,
		Seconds:             a.Seconds,
		USD:                 a.USD,
		MFLUPSPerDollarHour: a.MFLUPSPerDollarHour,
		Tier:                a.Tier,
		Confidence:          confidenceJSON(a.Confidence),
		Extrapolated:        a.Extrapolated,
	}
}

// handlePlan runs the dashboard decision procedure over the requested
// (or whole) catalog: assess every system with the anatomy-tuned
// generalized model, cut the ones that bust the cost or deadline bound,
// recommend under the objective, and report the time/cost Pareto
// frontier of what's left.
func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	var req PlanRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if err := req.validate(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	obj, err := dashboard.ParseObjective(req.Objective)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	ctx, cancel := withTimeoutMS(r.Context(), req.TimeoutMS)
	defer cancel()

	systems := req.Systems
	if len(systems) == 0 {
		systems = s.order
	}

	// The generalized model's laws are machine-independent (each
	// calibration tunes them against the same solver at the same node
	// width), so the first calibration's summary+laws serve the whole
	// assessment; each entry contributes its own machine characterization
	// and tiered predictor.
	entries := make([]dashboard.Entry, 0, len(systems))
	var first *calibration
	for _, name := range systems {
		cal, _, err := s.calibrationFor(ctx, name, req.Workload, req.Seed, req.Tier)
		if err != nil {
			writeErr(w, err)
			return
		}
		if first == nil {
			first = cal
		}
		entries = append(entries, cal.entry)
	}
	d := &dashboard.Dashboard{Entries: entries}
	as, err := d.AssessTier(first.summary, first.general, req.Ranks, req.Steps, req.Tier)
	if err != nil {
		writeErr(w, err)
		return
	}

	var kept []dashboard.Assessment
	resp := PlanResponse{Objective: obj.String()}
	for _, a := range as {
		resp.Assessments = append(resp.Assessments, assessmentJSON(a))
		switch {
		case req.MaxUSD > 0 && a.USD > req.MaxUSD:
			resp.Excluded = append(resp.Excluded,
				fmt.Sprintf("%s: predicted $%.4f exceeds max_usd $%.4f", a.System, a.USD, req.MaxUSD))
		case req.DeadlineS > 0 && a.Seconds > req.DeadlineS:
			resp.Excluded = append(resp.Excluded,
				fmt.Sprintf("%s: predicted %.1fs exceeds deadline_s %.1f", a.System, a.Seconds, req.DeadlineS))
		default:
			kept = append(kept, a)
		}
	}
	if len(kept) > 0 {
		best, err := dashboard.Recommend(kept, obj, 0)
		if err != nil {
			writeErr(w, err)
			return
		}
		bj := assessmentJSON(best)
		resp.Recommended = &bj
		for _, a := range dashboard.Pareto(kept) {
			resp.Pareto = append(resp.Pareto, assessmentJSON(a))
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

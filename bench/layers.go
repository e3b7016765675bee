package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/dashboard"
	"repro/internal/decomp"
	"repro/internal/geometry"
	"repro/internal/lbm"
	"repro/internal/machine"
	"repro/internal/perfmodel"
	"repro/internal/simcloud"
)

// solverParams are the solver parameters serve's calibration builds use.
var solverParams = lbm.Params{Tau: 0.9, UMax: 0.02}

// serveSamples is serve's default microbenchmark sample count.
const serveSamples = 5

// widestNode is the calibration node width serve uses: the catalog's
// largest CoresPerNode.
func widestNode(systems []*machine.System) int {
	w := 1
	for _, s := range systems {
		w = max(w, s.CoresPerNode)
	}
	return w
}

// Microbenchmark shape of the perfmodel and dashboard layer timings:
// batches of calls, reporting the median batch's mean per call.
const (
	layerBatches   = 5
	predictPerCall = 2000
	assessPerCall  = 200
)

// timeBatches times fn over layerBatches batches of perBatch calls,
// recording a span per batch, and returns the median ns per call.
func timeBatches(res *result, layer, name string, perBatch int, fn func() error) (float64, error) {
	var perCall []float64
	for b := 0; b < layerBatches; b++ {
		var err error
		d := res.spans.timed(-1, 0, layer, name, func() {
			for i := 0; i < perBatch && err == nil; i++ {
				err = fn()
			}
		})
		if err != nil {
			return 0, fmt.Errorf("%s %s: %w", layer, name, err)
		}
		perCall = append(perCall, float64(d.Nanoseconds())/float64(perBatch))
	}
	res.samples[layer+"."+name] = layerBatches * perBatch
	return median(perCall), nil
}

// warmLayerBench times the layers below serve's warm handler on a warm
// calibration of the workload's first geometry: Predictor.Predict per
// tier and for the direct model, Dashboard.AssessTier, and the JSON
// codec on the workload's own bodies.
func warmLayerBench(w requestSet, refs [][]byte, res *result) error {
	if err := jsonCodecBench(res, w.bodies, refs, w.seq); err != nil {
		return err
	}
	systems := machine.Catalog()
	dom, err := campaign.BuildGeometry(warmGeometries[0], warmScale)
	if err != nil {
		return err
	}
	solver, err := lbm.NewSparse(dom, solverParams)
	if err != nil {
		return err
	}
	access := lbm.HarveyAccess()
	general, err := perfmodel.CalibrateGeneral(solver, access, core.CalibrationCounts(solver.N()), widestNode(systems))
	if err != nil {
		return err
	}
	summary := perfmodel.WorkloadSummary{Name: dom.Name, Points: solver.N(), BytesSerial: solver.BytesSerial(access)}
	table, err := perfmodel.DefaultTable()
	if err != nil {
		return err
	}
	entries := make([]dashboard.Entry, 0, len(systems))
	for _, sys := range systems {
		char, err := perfmodel.Characterize(sys, serveSamples, rand.New(rand.NewSource(serveDefaultSeed)))
		if err != nil {
			return err
		}
		e, err := dashboard.NewEntry(sys, char, table)
		if err != nil {
			return err
		}
		entries = append(entries, e)
	}
	pred := entries[0].Predictor
	tiers := [][2]string{
		{"tier0", perfmodel.Tier0Physics}, {"tier1", perfmodel.Tier1Calibrated},
		{"tier2", perfmodel.Tier2Measured}, {"auto", perfmodel.TierAuto},
	}
	for _, nt := range tiers {
		name, tier := nt[0], nt[1]
		req := perfmodel.Request{Model: perfmodel.ModelGeneral, Summary: &summary, General: general, Ranks: warmRanks, Tier: tier}
		ns, err := timeBatches(res, "perfmodel", "predict_ns."+name, predictPerCall, func() error {
			_, err := pred.Predict(req)
			return err
		})
		if err != nil {
			return err
		}
		res.metrics["perfmodel.predict_ns."+name] = ns
	}
	part, err := decomp.RCB(solver, warmDirectRankList[len(warmDirectRankList)-1], access)
	if err != nil {
		return err
	}
	wl := simcloud.FromPartition(dom.Name, solver.N(), part)
	direct := perfmodel.Request{Model: perfmodel.ModelDirect, Workload: &wl, Tier: perfmodel.Tier1Calibrated}
	ns, err := timeBatches(res, "perfmodel", "predict_ns.direct", predictPerCall, func() error {
		_, err := pred.Predict(direct)
		return err
	})
	if err != nil {
		return err
	}
	res.metrics["perfmodel.predict_ns.direct"] = ns

	d := &dashboard.Dashboard{Entries: entries}
	assessTiers := []string{perfmodel.Tier0Physics, perfmodel.Tier1Calibrated, perfmodel.Tier2Measured, perfmodel.TierAuto}
	call := 0
	ns, err = timeBatches(res, "dashboard", "assess_us", assessPerCall, func() error {
		call++
		_, err := d.AssessTier(summary, general, warmRanks, warmPlanSteps, assessTiers[call%len(assessTiers)])
		return err
	})
	if err != nil {
		return err
	}
	res.metrics["dashboard.assess_us"] = ns / 1e3
	return nil
}

// coldStageReplay replays one cold calibration per campaign geometry
// stage by stage, as serve's build runs them, and sets the stage
// metrics to the mean over the geometries. RCB is called here once per
// calibration task count; CalibrateGeneral repeats those calls inside,
// so its time includes them.
func coldStageReplay(res *result) error {
	systems := machine.Catalog()
	access := lbm.HarveyAccess()
	var charMS, geoMS, sparseMS, rcbMS, calMS, rcbCalls float64
	var rcbN int
	for gi, g := range coldGeometries {
		trace := -(gi + 2)
		sys := systems[gi%len(systems)]
		seed := int64(coldGoldenSeed0 + gi)
		root := res.spans.add(trace, 0, "serve", "replay "+g, sinceStart(time.Now()), 0)
		var err error
		charMS += ms(res.spans.timed(trace, root, "perfmodel", "Characterize", func() {
			_, err = perfmodel.Characterize(sys, serveSamples, rand.New(rand.NewSource(seed)))
		}))
		if err != nil {
			return err
		}
		var dom *geometry.Domain
		geoMS += ms(res.spans.timed(trace, root, "geometry", "BuildGeometry", func() {
			dom, err = campaign.BuildGeometry(g, coldScale)
		}))
		if err != nil {
			return err
		}
		var solver *lbm.Sparse
		sparseMS += ms(res.spans.timed(trace, root, "lbm", "NewSparse", func() {
			solver, err = lbm.NewSparse(dom, solverParams)
		}))
		if err != nil {
			return err
		}
		counts := core.CalibrationCounts(solver.N())
		rcbCalls += float64(len(counts))
		for _, k := range counts {
			rcbMS += ms(res.spans.timed(trace, root, "decomp", fmt.Sprintf("RCB %d", k), func() {
				_, err = decomp.RCB(solver, k, access)
			}))
			rcbN++
			if err != nil {
				return err
			}
		}
		calMS += ms(res.spans.timed(trace, root, "perfmodel", "CalibrateGeneral", func() {
			_, err = perfmodel.CalibrateGeneral(solver, access, counts, widestNode(systems))
		}))
		if err != nil {
			return err
		}
		res.spans.spans[root-1].EndNS = sinceStart(time.Now())
	}
	n := float64(len(coldGeometries))
	m := res.metrics
	m["perfmodel.characterize_ms"] = charMS / n
	m["geometry.build_ms"] = geoMS / n
	m["lbm.new_sparse_ms"] = sparseMS / n
	m["perfmodel.calibrate_general_ms"] = calMS / n
	m["decomp.rcb_calls_per_build"] = rcbCalls / n
	m["decomp.rcb_ms"] = rcbMS / float64(rcbN)
	for _, k := range []string{"perfmodel.characterize_ms", "geometry.build_ms", "lbm.new_sparse_ms", "perfmodel.calibrate_general_ms", "decomp.rcb_calls_per_build"} {
		res.samples[k] = len(coldGeometries)
	}
	res.samples["decomp.rcb_ms"] = rcbN
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

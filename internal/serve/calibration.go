package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/dashboard"
	"repro/internal/decomp"
	"repro/internal/lbm"
	"repro/internal/perfmodel"
	"repro/internal/simcloud"
)

// calibKey is the calibration cache identity. Determinism contract:
// everything the calibration computes is a pure function of these four
// fields plus server-constant configuration (Samples, the catalog's
// largest node width, the lookup table), so equal keys always yield
// byte-identical model state and the cache can never serve a stale or
// divergent entry. Tier is part of the key because tiers build different
// model state (Tier 0 skips characterization entirely), so predictions
// at different tiers must never share a cache slot.
type calibKey struct {
	System   string
	Workload WorkloadSpec
	Seed     int64
	Tier     string // normalized by perfmodel.ParseTier: never empty
}

// newCalibKey derives a request's key for one system: an omitted (zero)
// seed takes defaultSeed. tier must already be normalized.
func newCalibKey(system string, w WorkloadSpec, seed, defaultSeed int64, tier string) calibKey {
	if seed == 0 {
		seed = defaultSeed
	}
	return calibKey{System: system, Workload: w, Seed: seed, Tier: tier}
}

// String renders the key as "system|geometry@scale|seed|tier" — the one
// key format, shared by the calibration cache and the cluster router's
// shard ring. %g keeps it deterministic: equal float64 scales render
// identically.
func (k calibKey) String() string {
	return fmt.Sprintf("%s|%s@%g|%d|%s", k.System, k.Workload.Geometry, k.Workload.Scale, k.Seed, k.Tier)
}

// keyProbe is the lenient view of a /v1/predict or /v1/plan body: just
// the fields that form the calibration identity.
type keyProbe struct {
	Workload WorkloadSpec `json:"workload"`
	Systems  []string     `json:"systems"`
	Seed     int64        `json:"seed"`
	Tier     string       `json:"tier"`
}

// CalibrationKey derives the calibration key of a raw planning request
// body, substituting defaultSeed for an omitted seed exactly as a Server
// configured with that DefaultSeed does. A body naming exactly one
// system yields that system's cache key; multi-system and whole-catalog
// bodies use "*" for the system, so a workload's catalog-wide
// calibration set stays together. The body is decoded the way the
// handlers decode it — the first JSON value, trailing bytes ignored —
// so a body a replica serves keys identically on both sides. ok is
// false when the body has no decodable workload or an invalid tier;
// a Server rejects such bodies with 400.
func CalibrationKey(body []byte, defaultSeed int64) (key string, ok bool) {
	var p keyProbe
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&p); err != nil || p.Workload.Geometry == "" {
		return "", false
	}
	tier, err := perfmodel.ParseTier(p.Tier)
	if err != nil {
		return "", false
	}
	system := "*"
	if len(p.Systems) == 1 {
		system = p.Systems[0]
	}
	return newCalibKey(system, p.Workload, p.Seed, defaultSeed, tier).String(), true
}

// calibration bundles the expensive model state for one cache key:
// phase one's microbenchmark characterization of the system (Tier 1 and
// auto only — Tier 0 and 2 never pay for it) and phase two's
// anatomy-tuned generalized model, plus memoized decompositions for the
// direct model's rank counts. entry is the system's dashboard row, whose
// tiered Predictor every prediction routes through (its Char is nil for
// tier0/tier2 builds); tier is the key's normalized tier, stamped on
// each Request.
type calibration struct {
	entry   dashboard.Entry
	tier    string
	summary perfmodel.WorkloadSummary
	general perfmodel.GeneralModel
	solver  *lbm.Sparse
	access  lbm.AccessModel

	mu        sync.Mutex
	workloads map[int]simcloud.Workload
}

// needsCharacterization reports whether the tier's build pays for the
// microbenchmark fit: the calibrated tier and auto (which may serve
// tier1 predictions). Pure physics and measured lookup skip it — that
// skip is the point of the cheap tiers.
func needsCharacterization(tier string) bool {
	return tier == perfmodel.Tier1Calibrated || tier == perfmodel.TierAuto
}

// buildCalibration runs the cold path: characterize the system from
// microbenchmarks (when the tier needs the fit), build the workload
// geometry and solver, and tune the generalized model to it. ctx is
// checked between the expensive stages, so a deadline-bound request
// abandons the build promptly; the stages themselves are
// uninterruptible.
func (s *Server) buildCalibration(ctx context.Context, key calibKey) (*calibration, error) {
	sys, err := s.system(key.System)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var char *perfmodel.Characterization
	if needsCharacterization(key.Tier) {
		rng := rand.New(rand.NewSource(key.Seed))
		char, err = perfmodel.Characterize(sys, s.cfg.Samples, rng)
		if err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	dom, err := campaign.BuildGeometry(key.Workload.Geometry, key.Workload.Scale)
	if err != nil {
		return nil, &apiError{status: 400, msg: err.Error()}
	}
	solver, err := lbm.NewSparse(dom, lbm.Params{Tau: 0.9, UMax: 0.02})
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	access := lbm.HarveyAccess()
	var general perfmodel.GeneralModel
	if char != nil {
		general, err = perfmodel.CalibrateGeneral(solver, access, core.CalibrationCounts(solver.N()), s.coresPerNode)
		if err != nil {
			return nil, err
		}
	}
	entry, err := dashboard.NewEntry(sys, char, s.cfg.Table)
	if err != nil {
		return nil, err
	}
	return &calibration{
		entry: entry,
		tier:  key.Tier,
		summary: perfmodel.WorkloadSummary{
			Name:        key.Workload.Geometry,
			Points:      solver.N(),
			BytesSerial: solver.BytesSerial(access),
		},
		general:   general,
		solver:    solver,
		access:    access,
		workloads: make(map[int]simcloud.Workload),
	}, nil
}

// calibrationFor resolves the cache key and serves the calibration from
// the LRU, coalescing concurrent identical builds. seed 0 takes the
// server default; tier must already be normalized (never empty) — it
// qualifies the cache key, so predictions at different tiers never
// share an entry.
func (s *Server) calibrationFor(ctx context.Context, system string, spec WorkloadSpec, seed int64, tier string) (*calibration, cacheResult, error) {
	key := newCalibKey(system, spec, seed, s.cfg.DefaultSeed, tier)
	cal, res, err := s.cache.get(ctx, key.String(), func() (*calibration, error) {
		return s.buildCalibration(ctx, key)
	})
	switch res {
	case cacheHit:
		s.cacheHits.Inc()
	case cacheMiss:
		s.cacheMisses.Inc()
	case cacheCoalesced:
		s.cacheCoalesced.Inc()
	}
	return cal, res, err
}

// workload returns the RCB decomposition at the given rank count,
// memoizing per calibration — the direct model's analogue of the
// cached generalized laws.
func (c *calibration) workload(ranks int) (simcloud.Workload, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if w, ok := c.workloads[ranks]; ok {
		return w, nil
	}
	p, err := decomp.RCB(c.solver, ranks, c.access)
	if err != nil {
		return simcloud.Workload{}, err
	}
	w := simcloud.FromPartition(c.summary.Name, c.solver.N(), p)
	c.workloads[ranks] = w
	return w, nil
}

// predict evaluates the requested model through the tiered Predictor.
// The calibration's own tier rides on every request: explicit tiers
// route to exactly that backend (a missing one is perfmodel.ErrNoData,
// a 400), auto falls back tier2 → tier1 → tier0 by coverage.
func (c *calibration) predict(model string, ranks int, occupancy float64) (perfmodel.Prediction, error) {
	if model == perfmodel.ModelDirect {
		w, err := c.workload(ranks)
		if err != nil {
			return perfmodel.Prediction{}, err
		}
		return c.entry.Predict(perfmodel.Request{
			Model:     perfmodel.ModelDirect,
			Workload:  &w,
			Occupancy: occupancy,
			Tier:      c.tier,
		})
	}
	return c.entry.Predict(perfmodel.Request{
		Model:   perfmodel.ModelGeneral,
		Summary: &c.summary,
		General: c.general,
		Ranks:   ranks,
		Tier:    c.tier,
	})
}

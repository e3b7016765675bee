// Package serve is the planner-as-a-service layer: a stdlib-only HTTP
// service exposing the paper's decision procedure — "which cloud
// instances should run this hemodynamic campaign, at what cost?" — as a
// versioned JSON API under /v1.
//
// The paper's economics shape the architecture: calibration (system
// microbenchmarks, anatomy tuning) is expensive while model evaluation
// is microseconds, so calibrations live in an LRU cache keyed by
// (system, workload, seed) with singleflight coalescing, and the
// prediction endpoints become hot, effectively stateless calls.
// Robustness is conventional service hygiene: per-request deadlines, a
// concurrency limiter that sheds load with 429 + Retry-After instead of
// queueing into timeout collapse, request body caps, and graceful
// shutdown that drains in-flight async campaigns. Every request opens
// an obs span and feeds the request/latency/cache metric families that
// GET /v1/metrics exports.
//
// Endpoints:
//
//	POST /v1/predict        single + batch model predictions
//	POST /v1/plan           cost-bounded instance recommendation
//	POST /v1/campaigns      async campaign submission (serial or fleet)
//	GET  /v1/campaigns/{id} campaign status and report
//	GET  /v1/healthz        liveness + cache occupancy
//	GET  /v1/metrics        metrics snapshot (text exposition or JSON)
//	GET  /v1/telemetry      mergeable telemetry snapshot for aggregation
//
// Distributed tracing: every request that carries a traceparent header
// (injected by the cluster router) starts its handler span under that
// remote parent, so multi-process exports stitch into one tree; the
// span's trace ID echoes back in the X-Trace-Id response header.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/perfmodel"
)

// Config shapes a Server. Zero fields take the documented defaults.
type Config struct {
	// Systems is the candidate instance catalog (default
	// machine.Catalog(), the paper's Table I systems).
	Systems []*machine.System

	// Samples controls microbenchmark averaging per characterization
	// point (default 5, matching the CLIs).
	Samples int

	// Table is the Tier 2 measured-lookup table. Nil loads the embedded
	// default (internal/perfmodel/tables); if that fails, Tier 2 is
	// simply unavailable and explicit tier2 requests answer 400.
	Table *perfmodel.Table

	// DefaultSeed seeds calibrations for requests that omit a seed.
	DefaultSeed int64

	// CacheEntries bounds the calibration LRU (default 64).
	CacheEntries int

	// MaxInflight caps concurrently served planning requests; excess
	// requests are shed with 429 + Retry-After (default 64).
	MaxInflight int

	// MaxCampaigns caps concurrently running async campaigns; excess
	// submissions are shed with 429 (default 4).
	MaxCampaigns int

	// RequestTimeout is the per-request deadline ceiling (default 30s).
	// Requests may tighten it via timeout_ms but never exceed it.
	RequestTimeout time.Duration

	// MaxBodyBytes caps request bodies (default 1 MiB).
	MaxBodyBytes int64

	// Registry and Tracer are the observability sinks; nil values get
	// private instances (the tracer seeded from DefaultSeed).
	Registry *obs.Registry
	Tracer   *obs.Tracer
}

// Server is the planning service. Create with New, mount Handler, and
// Close on shutdown to drain async campaigns.
type Server struct {
	cfg          Config
	systems      map[string]*machine.System
	order        []string // catalog order, for default prediction sweeps
	coresPerNode int      // widest node in the catalog, the calibration width

	cache     *calibCache
	sem       chan struct{}
	campaigns *campaignManager
	jitter    *retryJitter

	reg       *obs.Registry
	tracer    *obs.Tracer
	startWall time.Time
	mux       *http.ServeMux

	cacheHits      *obs.Counter
	cacheMisses    *obs.Counter
	cacheCoalesced *obs.Counter

	// hookAfterAcquire, when set, runs on limited endpoints while the
	// inflight slot is held — a test seam for saturating the limiter
	// deterministically.
	hookAfterAcquire func()
}

// New builds a Server from the config.
func New(cfg Config) (*Server, error) {
	if cfg.Systems == nil {
		cfg.Systems = machine.Catalog()
	}
	if len(cfg.Systems) == 0 {
		return nil, fmt.Errorf("serve: empty system catalog")
	}
	if cfg.Samples <= 0 {
		cfg.Samples = 5
	}
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = 64
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 64
	}
	if cfg.MaxCampaigns <= 0 {
		cfg.MaxCampaigns = 4
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.Table == nil {
		// Best effort: without a table the service still serves tiers
		// 0/1; explicit tier2 requests get perfmodel.ErrNoData → 400.
		if tbl, err := perfmodel.DefaultTable(); err == nil {
			cfg.Table = tbl
		}
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	tracer := cfg.Tracer
	if tracer == nil {
		tracer = obs.NewTracer(cfg.DefaultSeed)
	}
	s := &Server{
		cfg:            cfg,
		systems:        make(map[string]*machine.System, len(cfg.Systems)),
		coresPerNode:   1,
		cache:          newCalibCache(cfg.CacheEntries),
		sem:            make(chan struct{}, cfg.MaxInflight),
		jitter:         newRetryJitter(cfg.DefaultSeed),
		reg:            reg,
		tracer:         tracer,
		startWall:      time.Now(),
		mux:            http.NewServeMux(),
		cacheHits:      reg.Counter("serve_cache_total", obs.L("result", "hit")),
		cacheMisses:    reg.Counter("serve_cache_total", obs.L("result", "miss")),
		cacheCoalesced: reg.Counter("serve_cache_total", obs.L("result", "coalesced")),
	}
	for _, sys := range cfg.Systems {
		if _, dup := s.systems[sys.Abbrev]; dup {
			return nil, fmt.Errorf("serve: duplicate system %q in catalog", sys.Abbrev)
		}
		s.systems[sys.Abbrev] = sys
		s.order = append(s.order, sys.Abbrev)
		if sys.CoresPerNode > s.coresPerNode {
			s.coresPerNode = sys.CoresPerNode
		}
	}
	s.campaigns = newCampaignManager(cfg.Systems, cfg.Samples, cfg.MaxCampaigns, reg)
	s.routes()
	return s, nil
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close drains in-flight async campaigns. Under a live ctx it waits for
// them to finish; once ctx expires it interrupts the remaining runs at
// their next clean point and waits for that.
func (s *Server) Close(ctx context.Context) error {
	return s.campaigns.drain(ctx)
}

// system resolves a catalog entry, or a 404 apiError.
func (s *Server) system(abbrev string) (*machine.System, error) {
	if sys, ok := s.systems[abbrev]; ok {
		return sys, nil
	}
	return nil, &apiError{status: http.StatusNotFound, msg: fmt.Sprintf("system %q not in catalog", abbrev)}
}

// simNow is the span timeline: seconds of server uptime.
func (s *Server) simNow() float64 { return time.Since(s.startWall).Seconds() }

func (s *Server) routes() {
	s.mux.HandleFunc("GET /v1/healthz", s.instrument("/v1/healthz", false, s.handleHealthz))
	s.mux.HandleFunc("GET /v1/metrics", s.instrument("/v1/metrics", false, s.handleMetrics))
	s.mux.HandleFunc("GET /v1/telemetry", s.instrument("/v1/telemetry", false, s.handleTelemetry))
	s.mux.HandleFunc("POST /v1/predict", s.instrument("/v1/predict", true, s.handlePredict))
	s.mux.HandleFunc("POST /v1/plan", s.instrument("/v1/plan", true, s.handlePlan))
	s.mux.HandleFunc("POST /v1/campaigns", s.instrument("/v1/campaigns", true, s.handleCampaignSubmit))
	s.mux.HandleFunc("GET /v1/campaigns/{id}", s.instrument("/v1/campaigns/status", false, s.handleCampaignStatus))
}

// statusWriter records the response code for metrics and span attrs,
// and stamps every 429 with the server's jittered Retry-After just
// before the header flushes (overriding writeError's static fallback).
type statusWriter struct {
	http.ResponseWriter
	code       int
	retryAfter func() string
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
		if code == http.StatusTooManyRequests && w.retryAfter != nil {
			w.Header().Set("Retry-After", w.retryAfter())
		}
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// latencyBuckets spans 50µs to ~1.6ks geometrically — fine enough for a
// p99 on a sub-millisecond cache-warm path.
var latencyBuckets = obs.ExpBuckets(50e-6, 2, 25)

// instrument is the middleware stack applied to every route: span +
// request/latency metrics always; on limited (planning) endpoints also
// the load-shedding concurrency limiter, the body cap, and the
// per-request deadline ceiling.
func (s *Server) instrument(endpoint string, limited bool, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, retryAfter: s.jitter.next}
		start := time.Now()
		sp := s.startSpan(r, "http "+endpoint)
		if tid := sp.TraceID(); !tid.IsZero() {
			sw.Header().Set("X-Trace-Id", tid.String())
		}
		r = r.WithContext(obs.ContextWithSpan(r.Context(), sp))
		defer func() {
			code := sw.code
			if code == 0 {
				code = http.StatusOK
			}
			sp.SetAttr("code", strconv.Itoa(code))
			sp.End(s.simNow())
			s.reg.Counter("serve_requests_total",
				obs.L("endpoint", endpoint), obs.L("code", strconv.Itoa(code))).Inc()
			s.reg.Histogram("serve_latency_seconds", latencyBuckets,
				obs.L("endpoint", endpoint)).Observe(time.Since(start).Seconds())
		}()

		if limited {
			select {
			case s.sem <- struct{}{}:
				defer func() { <-s.sem }()
			default:
				s.reg.Counter("serve_shed_total", obs.L("endpoint", endpoint)).Inc()
				writeError(sw, http.StatusTooManyRequests, "server saturated; retry after backoff")
				return
			}
			if s.hookAfterAcquire != nil {
				s.hookAfterAcquire()
			}
			inflight := s.reg.Gauge("serve_inflight")
			inflight.Add(1)
			defer inflight.Add(-1)

			r.Body = http.MaxBytesReader(sw, r.Body, s.cfg.MaxBodyBytes)
			ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		h(sw, r)
	}
}

// startSpan opens the request's handler span. A valid traceparent
// header (the router's injection) makes the span a child of the remote
// forward span — one stitched tree per client request; anything else,
// including malformed headers, falls back to a fresh local root.
func (s *Server) startSpan(r *http.Request, name string) *obs.Span {
	if v := r.Header.Get(obs.TraceParentHeader); v != "" {
		if tp, err := obs.ParseTraceParent(v); err == nil {
			return s.tracer.StartRemote(tp, name, s.simNow())
		}
	}
	return s.tracer.Start(name, s.simNow())
}

// apiError is an error with a fixed HTTP status.
type apiError struct {
	status int
	msg    string
}

func (e *apiError) Error() string { return e.msg }

// statusFor maps an error to its response status: apiError's own
// status, 504 for a request that outran its deadline, 503 for one
// cancelled by shutdown, 500 otherwise.
func statusFor(err error) int {
	var ae *apiError
	if errors.As(err, &ae) {
		return ae.status
	}
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	case errors.Is(err, perfmodel.ErrNoData):
		// An explicit tier the server has no data for is a client-side
		// request problem, not a server fault.
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	if err := enc.Encode(v); err != nil {
		// Headers are gone; nothing to do but note it in metrics via
		// the caller's instrumented status.
		return
	}
}

func writeError(w http.ResponseWriter, status int, msg string) {
	if status == http.StatusTooManyRequests {
		// Load shedding contract: every 429 names a backoff. This
		// static value is only a fallback — statusWriter overrides it
		// with the server's seeded jitter at WriteHeader time, so
		// client fleets don't retry in lockstep.
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, ErrorResponse{Error: msg})
}

// retryJitter deals deterministic Retry-After backoffs in [1, 3]
// seconds from a seeded SplitMix64 stream. Shedding a fleet of clients
// with one constant backoff synchronizes their retries into a thundering
// herd one second later; per-server seeded jitter de-phases them while
// keeping test runs reproducible.
type retryJitter struct {
	mu    sync.Mutex
	state uint64
}

func newRetryJitter(seed int64) *retryJitter {
	return &retryJitter{state: uint64(seed)}
}

// next returns the following backoff in whole seconds, "1".."3".
func (j *retryJitter) next() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	// SplitMix64 step: well-distributed, cheap, reproducible.
	j.state += 0x9e3779b97f4a7c15
	z := j.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return strconv.Itoa(int(z%3) + 1)
}

func writeErr(w http.ResponseWriter, err error) {
	writeError(w, statusFor(err), err.Error())
}

// decodeJSON parses a request body strictly (unknown fields rejected),
// answering 400 on malformed input and 413 past the body cap.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
			return false
		}
		writeError(w, http.StatusBadRequest, "malformed JSON: "+err.Error())
		return false
	}
	return true
}

// withTimeoutMS tightens ctx by a request's timeout_ms field. The
// server ceiling already bounds ctx, so this can only shorten.
func withTimeoutMS(ctx context.Context, timeoutMS int64) (context.Context, context.CancelFunc) {
	if timeoutMS <= 0 {
		return context.WithCancel(ctx)
	}
	return context.WithTimeout(ctx, time.Duration(timeoutMS)*time.Millisecond)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:       "ok",
		UptimeS:      s.simNow(),
		CacheEntries: s.cache.len(),
		Campaigns:    s.campaigns.running(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.reg.Snapshot()
	if r.URL.Query().Get("format") == "json" {
		writeJSON(w, http.StatusOK, snap)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if err := obs.WriteMetricsText(w, snap); err != nil {
		// Mid-stream failure: the status line is already written.
		return
	}
}

// handleTelemetry serves the raw mergeable metric state — counter sums
// and histogram buckets, never quantiles — that the cluster router
// scrapes and folds into fleet-wide aggregates (obs.MergeMetrics).
func (s *Server) handleTelemetry(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, obs.TelemetrySnapshot{
		UptimeS: s.simNow(),
		Metrics: s.reg.Snapshot(),
	})
}

//lint:hot
func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	var req PredictRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if err := req.validate(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	ctx, cancel := withTimeoutMS(r.Context(), req.TimeoutMS)
	defer cancel()

	systems := req.Systems
	if len(systems) == 0 {
		systems = s.order
	}
	model := req.Model
	if model == "" {
		model = perfmodel.ModelGeneral
	}

	resp := PredictResponse{Predictions: make([]PredictionJSON, 0, len(systems)*len(req.Ranks))}
	for _, sysName := range systems {
		cal, res, err := s.calibrationFor(ctx, sysName, req.Workload, req.Seed, req.Tier)
		if err != nil {
			writeErr(w, err)
			return
		}
		switch res {
		case cacheHit:
			resp.CacheHits++
		case cacheMiss:
			resp.CacheMisses++
		case cacheCoalesced:
			resp.CacheCoalesced++
		}
		for _, ranks := range req.Ranks {
			pred, err := cal.predict(model, ranks, req.Occupancy)
			if err != nil {
				writeErr(w, err)
				return
			}
			resp.Predictions = append(resp.Predictions, predictionJSON(pred))
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/serve"
)

// coldRatePerSecond sets calibrate-cold's fixed request count: seconds x
// rate requests, rounded up to whole decks (at least setupRepeats), about
// --seconds of work on the reference 2-core host.
const coldRatePerSecond = 16

// coldCacheEntries sizes the replica's calibration LRU to one deck's
// builds. Each part sends one deck to a fresh replica, so at the end of
// the part the LRU holds exactly that deck's builds, whatever order they
// came in, and heap_live_mb compares across seeds.
func coldCacheEntries(systems int) int {
	n := 0
	for _, k := range coldDeck {
		n += coldExpectedBuilds(k, systems)
	}
	return n
}

// coldExpectedBuilds is how many calibrations a request of each kind
// builds on a never-seen key: one, or one per catalog system for a plan.
func coldExpectedBuilds(kind, systems int) int {
	if kind == kindPlan {
		return systems
	}
	return 1
}

// coldReplica is the calibrate-cold system under test: one serve
// replica on a loopback HTTP port.
type coldReplica struct {
	reg       *obs.Registry
	tracer    *obs.Tracer
	target    *httpTarget
	client    *client
	tracing   atomic.Bool
	slots     *slots // traced runs only
	closeOnce sync.Once
}

// coldWarmupSeed0 seeds the set-up's warm-up requests, outside both the
// golden and the generated seed ranges.
const coldWarmupSeed0 = 800001

func newColdReplica(clients, n int, traced bool, systems []string) (*coldReplica, error) {
	r := &coldReplica{reg: obs.NewRegistry(), tracer: obs.NewTracer(2)}
	srv, err := serve.New(serve.Config{DefaultSeed: serveDefaultSeed, CacheEntries: coldCacheEntries(len(systems)), Registry: r.reg, Tracer: r.tracer})
	if err != nil {
		return nil, err
	}
	var h http.Handler = srv.Handler()
	if traced {
		r.slots = newSlots(n)
		h = &handlerTimer{next: h, on: &r.tracing, slots: r.slots}
	}
	if r.target, err = listen(h); err != nil {
		return nil, err
	}
	r.client = newClient(clients)
	// Warm-up: one cold build per client connection, so the timed window
	// starts with open connections and loaded code paths.
	var buf bytes.Buffer
	for i := 0; i < clients; i++ {
		b := coldBody(kindSingle, "cylinder", systems[0], nil, int64(coldWarmupSeed0+i))
		code, _, err := r.client.post(r.target.url+b.path(), b.json, -1, &buf)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("status %d: %s", code, bytes.TrimSpace(buf.Bytes()))
		}
		if err != nil {
			r.close()
			return nil, fmt.Errorf("calibrate-cold warm-up: %w", err)
		}
	}
	return r, nil
}

func (r *coldReplica) close() {
	r.closeOnce.Do(func() {
		r.client.close()
		r.target.close()
	})
}

// checkCold validates a cold response that has no golden: status 200,
// the expected number of answers, and one build per predict.
func checkCold(b body, resp []byte, ranks int, systems int) error {
	if b.kind == kindPlan {
		var pr serve.PlanResponse
		if err := json.Unmarshal(resp, &pr); err != nil {
			return err
		}
		if len(pr.Assessments) != systems || pr.Recommended == nil {
			return fmt.Errorf("plan answered %d assessments (want %d), recommended=%v", len(pr.Assessments), systems, pr.Recommended != nil)
		}
		return nil
	}
	var pr serve.PredictResponse
	if err := json.Unmarshal(resp, &pr); err != nil {
		return err
	}
	if len(pr.Predictions) != ranks || pr.CacheMisses != 1 || pr.CacheHits != 0 {
		return fmt.Errorf("predict answered %d predictions (want %d) with %d misses, %d hits (want 1, 0)", len(pr.Predictions), ranks, pr.CacheMisses, pr.CacheHits)
	}
	for _, p := range pr.Predictions {
		if !(p.MFLUPS > 0) {
			return fmt.Errorf("prediction for %s at %d ranks has mflups %v", p.System, p.Ranks, p.MFLUPS)
		}
	}
	return nil
}

// checkBuilds is the calibrate-cold build-count gate: every request's
// keys are new, so the replica must have built one calibration per
// predict and one per catalog system per plan, no more and no fewer.
func checkBuilds(bodies []body, systems, built int) error {
	want := 0
	for _, b := range bodies {
		want += coldExpectedBuilds(b.kind, systems)
	}
	if built != want {
		return fmt.Errorf("calibrate-cold built %d calibrations, want %d", built, want)
	}
	return nil
}

// rankCount returns how many rank counts a predict body asks for.
func rankCount(b body) int {
	var req serve.PredictRequest
	if err := json.Unmarshal(b.json, &req); err != nil {
		return -1
	}
	return len(req.Ranks)
}

// runCalibrateCold builds one replica per deck; after each build it
// sends that deck (the golden bodies first, before the first deck).
// Latencies pool over the parts; heap_live_mb is the median of the parts'
// readings, each taken when the replica's LRU holds the part's deck.
func runCalibrateCold(cfg runConfig, res *result) error {
	systems := catalogSystems()
	decks := max((cfg.seconds*coldRatePerSecond+len(coldDeck)-1)/len(coldDeck), setupRepeats)
	bodies := genCold(cfg.seed, decks, systems)
	var golden []coldGoldenEntry
	if err := loadGolden("calibrate-cold.json", &golden); err != nil {
		return err
	}
	n := len(bodies)
	res.note("calibrate-cold: 1 serve replica on loopback HTTP, %d closed-loop clients, %d requests (%d golden, then %d decks of %d), each deck on a fresh set-up, scale %g, golden bodies checked against goldens (rel tol %g)",
		cfg.clients, n, len(golden), decks, len(coldDeck), float64(coldScale), coldRelTol)
	ranks := make([]int, n)
	for i, b := range bodies {
		if b.kind != kindPlan {
			ranks[i] = rankCount(b)
		}
	}
	// partSeq returns part r's indices into bodies.
	partSeq := func(r int) []int {
		lo, hi := len(golden)+r*len(coldDeck), len(golden)+(r+1)*len(coldDeck)
		if r == 0 {
			lo = 0
		}
		return indices(lo, hi)
	}

	// window sends bodies[seq[i]] in order. Only the golden bodies of the
	// untraced first part are compared with goldens.
	window := func(r *coldReplica, bodies []body, ranks []int, seq []int, traced bool) pass {
		return sendPass(r.client, r.target.url, requestSet{bodies: bodies, seq: seq}, cfg.clients, traced, nil, res, func(i int, resp []byte) error {
			bi := seq[i]
			if bi < len(golden) && !traced {
				if err := compareJSON(golden[bi].Response, resp, coldRelTol); err != nil {
					return fmt.Errorf("golden %d: %w", bi, err)
				}
				return nil
			}
			if err := checkCold(bodies[bi], resp, ranks[bi], len(systems)); err != nil {
				return fmt.Errorf("%s: %w", bodies[bi].json, err)
			}
			return nil
		})
	}

	var heaps, rates []float64
	var all, last pass
	var rt runtimeSample
	var hits, misses, coalesced, spans float64
	sendPart := func(rep *coldReplica, r int) error {
		seq := partSeq(r)
		runtime.GC() // start every part from the same collector state
		h0, m0, c0 := cacheCounts([]*obs.Registry{rep.reg})
		spans0 := rep.tracer.Len()
		a := readRuntime()
		last = window(rep, bodies, ranks, seq, false)
		b := readRuntime()
		h1, m1, c1 := cacheCounts([]*obs.Registry{rep.reg})
		hits, misses, coalesced = hits+h1-h0, misses+m1-m0, coalesced+c1-c0
		spans += float64(rep.tracer.Len() - spans0)
		rt = rt.plus(b.minus(a))
		rates = append(rates, segmentRates(last.latNS, last.startNS)...)
		all.add(last)
		heaps = append(heaps, heapLiveMB())
		partBodies := make([]body, len(seq))
		for i, bi := range seq {
			partBodies[i] = bodies[bi]
		}
		res.attempt(1)
		if err := checkBuilds(partBodies, len(systems), int(m1-m0)); err != nil {
			res.fail("part %d: %v", r, err)
		}
		return nil
	}
	rep, err := timeSetups(res, decks, func() (*coldReplica, error) {
		return newColdReplica(cfg.clients, len(coldDeck), cfg.traced, systems)
	}, sendPart, (*coldReplica).close)
	if err != nil {
		return err
	}
	defer rep.close()
	setHeap(res, heaps)
	setLatency(res, all.latNS, median(rates))
	if !cfg.traced {
		return nil
	}

	// Traced run: the untraced parts above supply the runtime, cache and
	// span-retention counts and the tracing-overhead baseline; a traced
	// deck with fresh calibration seeds, on the last set-up, supplies the
	// layer split.
	m := res.metrics
	runtimePerOp(m, rt, n)
	if total := hits + misses + coalesced; total > 0 {
		m["serve.cache_hit_ratio"] = hits / total
	}
	m["serve.builds_per_req"] = misses / float64(n)
	m["obs.spans_retained_per_req"] = spans / float64(n)
	m["client.latency_p99_ms"] = quantile(sortedCopy(nsToMS(all.latNS)), 0.99)
	res.samples["client.latency_p99_ms"] = n

	fresh := genCold(cfg.seed+1<<32, 1, systems)[len(golden):]
	freshRanks := make([]int, len(fresh))
	for i, b := range fresh {
		if b.kind != kindPlan {
			freshRanks[i] = rankCount(b)
		}
	}
	seq := indices(0, len(fresh))
	rep.tracing.Store(true)
	traced := window(rep, fresh, freshRanks, seq, true)
	rep.tracing.Store(false)
	m["serve.shed"] = float64(all.shed + traced.shed)
	setOverhead(m, last.latNS, traced.latNS,
		median(segmentRates(last.latNS, last.startNS)), median(segmentRates(traced.latNS, traced.startNS)))
	splitRequests(res, requestSet{bodies: fresh, seq: seq}, traced, nil, rep.slots, 1)

	refs := make([][]byte, len(golden))
	gb := make([]body, len(golden))
	for i, g := range golden {
		refs[i] = g.Response
		gb[i] = coldGoldenBodies(systems)[i]
	}
	if err := jsonCodecBench(res, gb, refs, indices(0, len(gb))); err != nil {
		return err
	}
	return coldStageReplay(res)
}

// indices returns lo, lo+1, ..., hi-1.
func indices(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

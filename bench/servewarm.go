package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/serve"
)

// serve-warm topology: the same shape as `loadgen -cluster`, three
// in-process serve replicas behind the cluster router, the router on a
// loopback HTTP port.
const (
	warmReplicas     = 3
	warmCacheEntries = 128 // per replica; a run's keyset needs at most 120
	serveDefaultSeed = 1
	// warmRatePerSecond sets the fixed request count: seconds x rate
	// requests, about --seconds of work on the reference 2-core host.
	warmRatePerSecond = 14000
)

// warmTopology is one built serve-warm system under test.
type warmTopology struct {
	replicaRegs    []*obs.Registry
	replicaTracers []*obs.Tracer
	routerTracer   *obs.Tracer
	cl             *cluster.Cluster
	target         *httpTarget
	client         *client
	replicaNames   []string

	tracing      atomic.Bool
	routerSlots  *slots // traced runs only
	replicaSlots *slots
	closeOnce    sync.Once
}

func newWarmTopology(clients, n int, traced bool) (*warmTopology, error) {
	t := &warmTopology{}
	if traced {
		t.routerSlots, t.replicaSlots = newSlots(n), newSlots(n)
	}
	reps := make([]cluster.Replica, warmReplicas)
	for i := range reps {
		reg, tr := obs.NewRegistry(), obs.NewTracer(int64(2+i))
		srv, err := serve.New(serve.Config{DefaultSeed: serveDefaultSeed, CacheEntries: warmCacheEntries, Registry: reg, Tracer: tr})
		if err != nil {
			return nil, err
		}
		var h http.Handler = srv.Handler()
		if traced {
			h = &handlerTimer{next: h, on: &t.tracing, slots: t.replicaSlots}
		}
		name := fmt.Sprintf("r%d", i)
		reps[i] = cluster.Replica{Name: name, BaseURL: "http://" + name, Transport: cluster.NewHandlerTransport(h)}
		t.replicaRegs = append(t.replicaRegs, reg)
		t.replicaTracers = append(t.replicaTracers, tr)
		t.replicaNames = append(t.replicaNames, name)
	}
	t.routerTracer = obs.NewTracer(1)
	cl, err := cluster.New(cluster.Config{Replicas: reps, Seed: 1, DefaultSeed: serveDefaultSeed, Tracer: t.routerTracer})
	if err != nil {
		return nil, err
	}
	t.cl = cl
	var h http.Handler = cl.Router().Handler()
	if traced {
		h = &handlerTimer{next: h, on: &t.tracing, slots: t.routerSlots}
	}
	if t.target, err = listen(h); err != nil {
		if cerr := cl.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "perfbench: closing router:", cerr)
		}
		return nil, err
	}
	t.client = newClient(clients)
	return t, nil
}

func (t *warmTopology) close() {
	t.closeOnce.Do(func() {
		t.client.close()
		t.target.close()
		if err := t.cl.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: closing router:", err)
		}

	})
}

// spansRetained sums the router's and replicas' retained spans.
func (t *warmTopology) spansRetained() int {
	n := t.routerTracer.Len()
	for _, tr := range t.replicaTracers {
		n += tr.Len()
	}
	return n
}

// cacheCounts sums serve_cache_total over the replicas.
func cacheCounts(regs []*obs.Registry) (hits, misses, coalesced float64) {
	for _, reg := range regs {
		hits += reg.Counter("serve_cache_total", obs.L("result", "hit")).Value()
		misses += reg.Counter("serve_cache_total", obs.L("result", "miss")).Value()
		coalesced += reg.Counter("serve_cache_total", obs.L("result", "coalesced")).Value()
	}
	return
}

// warm posts every distinct body once to fill the caches, then once more
// to capture the warm response each body must keep returning. With a
// golden table it checks those responses against it.
func (t *warmTopology) warm(w requestSet, clients int, golden warmGolden, res *result) ([][]byte, error) {
	refs := make([][]byte, len(w.bodies))
	bufs := make([]bytes.Buffer, clients)
	var firstErr atomic.Value
	pass := func(keep bool) {
		closedLoop(clients, len(w.bodies), func(c, i int) {
			b := w.bodies[i]
			code, _, err := t.client.post(t.target.url+b.path(), b.json, -1, &bufs[c])
			if err == nil && code != http.StatusOK {
				err = fmt.Errorf("status %d: %s", code, bytes.TrimSpace(bufs[c].Bytes()))
			}
			if err != nil {
				firstErr.CompareAndSwap(nil, fmt.Errorf("warming %s: %w", b.json, err))
				return
			}
			if keep {
				refs[i] = append([]byte(nil), bufs[c].Bytes()...)
			}
		})
	}
	pass(false)
	pass(true)
	if err, _ := firstErr.Load().(error); err != nil {
		return nil, err
	}
	if golden != nil {
		res.attempt(len(refs))
		for i, ref := range refs {
			if err := golden.checkHash(w.bodies[i].json, ref); err != nil {
				res.fail("serve-warm golden: %v", err)
			}
		}
	}
	return refs, nil
}

// send runs one timed pass over w and checks every response byte for
// byte against the body's warm reference.
func (t *warmTopology) send(w requestSet, refs [][]byte, clients int, traced bool, res *result) pass {
	return sendPass(t.client, t.target.url, w, clients, traced, t.replicaNames, res, matchesWarmRef(w, refs))
}

// matchesWarmRef is the serve-warm window gate: the response to request
// i must equal its body's warm reference byte for byte.
func matchesWarmRef(w requestSet, refs [][]byte) func(i int, resp []byte) error {
	return func(i int, resp []byte) error {
		if !bytes.Equal(resp, refs[w.seq[i]]) {
			return fmt.Errorf("response to %s differs from its warm reference", w.bodies[w.seq[i]].json)
		}
		return nil
	}
}

// runServeWarm builds the topology setupRepeats times; after each build
// it sends one part of the request sequence, so no topology retains more
// than a part's spans. Latencies pool over the parts; heap_live_mb is the
// median of the parts' readings.
func runServeWarm(cfg runConfig, res *result) error {
	systems := catalogSystems()
	// Whole blocks of the request mix in every part.
	unit := warmBlock * setupRepeats
	n := (cfg.seconds*warmRatePerSecond + unit - 1) / unit * unit
	part := n / setupRepeats
	w := genWarm(cfg.seed, n, systems)
	var golden warmGolden
	if err := loadGolden("serve-warm.json", &golden); err != nil {
		return err
	}
	res.note("serve-warm: %d replicas (cache %d each) behind the router on loopback HTTP, %d closed-loop clients, %d distinct bodies, %d requests in %d parts, each on a fresh set-up",
		warmReplicas, warmCacheEntries, cfg.clients, len(w.bodies), n, setupRepeats)

	var heaps, rates []float64
	var all pass
	var refs [][]byte
	var rt runtimeSample
	var hits, misses, coalesced, spans float64
	build := func() (*warmTopology, error) {
		t, err := newWarmTopology(cfg.clients, part, cfg.traced)
		if err != nil {
			return nil, err
		}
		if refs, err = t.warm(w, cfg.clients, golden, res); err != nil {
			t.close()
			return nil, err
		}
		return t, nil
	}
	sendPart := func(t *warmTopology, r int) error {
		runtime.GC() // start every part from the same collector state
		h0, m0, c0 := cacheCounts(t.replicaRegs)
		spans0 := t.spansRetained()
		a := readRuntime()
		win := t.send(requestSet{bodies: w.bodies, seq: w.seq[r*part : (r+1)*part]}, refs, cfg.clients, false, res)
		b := readRuntime()
		h1, m1, c1 := cacheCounts(t.replicaRegs)
		hits, misses, coalesced = hits+h1-h0, misses+m1-m0, coalesced+c1-c0
		spans += float64(t.spansRetained() - spans0)
		rt = rt.plus(b.minus(a))
		rates = append(rates, segmentRates(win.latNS, win.startNS)...)
		all.add(win)
		heaps = append(heaps, heapLiveMB())
		return nil
	}
	t, err := timeSetups(res, setupRepeats, build, sendPart, (*warmTopology).close)
	if err != nil {
		return err
	}
	defer t.close()
	setHeap(res, heaps)
	setLatency(res, all.latNS, median(rates))
	if !cfg.traced {
		return nil
	}

	// Traced run: the untraced parts above supply the runtime, cache and
	// span-retention counts and the tracing-overhead baseline; a traced
	// pass over the last part, on the last set-up, supplies the layer split.
	m := res.metrics
	runtimePerOp(m, rt, n)
	if total := hits + misses + coalesced; total > 0 {
		m["serve.cache_hit_ratio"] = hits / total
	}
	m["serve.builds_per_req"] = misses / float64(n)
	m["obs.spans_retained_per_req"] = spans / float64(n)
	m["client.latency_p99_ms"] = quantile(sortedCopy(nsToMS(all.latNS)), 0.99)
	res.samples["client.latency_p99_ms"] = n

	last := requestSet{bodies: w.bodies, seq: w.seq[n-part:]}
	t.tracing.Store(true)
	traced := t.send(last, refs, cfg.clients, true, res)
	t.tracing.Store(false)
	m["serve.shed"] = float64(all.shed + traced.shed)
	setOverhead(m, all.latNS[n-part:], traced.latNS,
		median(segmentRates(all.latNS[n-part:], all.startNS[n-part:])), median(segmentRates(traced.latNS, traced.startNS)))
	splitRequests(res, last, traced, t.routerSlots, t.replicaSlots, len(t.replicaNames))

	ms, err := t.client.getMetrics(t.target.url)
	if err != nil {
		return err
	}
	for _, mt := range ms {
		switch mt.Name {
		case "cluster_retry_total":
			m["cluster.retries"] += mt.Value
		case "cluster_admission_denied_total":
			m["cluster.denied"] += mt.Value
		}
	}
	return warmLayerBench(w, refs, res)
}

// splitRequests turns the traced window's client latencies and handler
// intervals into the client, cluster and serve layer metrics and spans.
// routers may be nil (no router in front of the replica).
func splitRequests(res *result, w requestSet, win pass, routers, replicas *slots, nReplicas int) {
	m := res.metrics
	var overhead, routerSelf []float64
	handler := map[string][]float64{}
	perReplica := make([]int, nReplicas)
	for i, lat := range win.latNS {
		cl := interval{win.startNS[i], win.startNS[i] + lat}
		cid := res.spans.add(i, 0, "client", "POST "+w.bodies[w.seq[i]].path(), cl.start, cl.end)
		rep, repOK := replicas.interval(i)
		parent, outer := cid, rep
		if routers != nil {
			rt, ok := routers.interval(i)
			if !ok {
				continue
			}
			parent = res.spans.add(i, cid, "cluster", "router", rt.start, rt.end)
			outer = rt
			if repOK {
				routerSelf = append(routerSelf, float64(selfTime(rt, []interval{rep}))/1e3)
			}
		}
		if !repOK {
			continue
		}
		res.spans.add(i, parent, "serve", "handler", rep.start, rep.end)
		overhead = append(overhead, float64(selfTime(cl, []interval{outer}))/1e3)
		kind := "predict"
		if w.bodies[w.seq[i]].kind == kindPlan {
			kind = "plan"
		}
		handler[kind] = append(handler[kind], float64(rep.dur())/1e3)
		if i < len(win.replica) && win.replica[i] >= 0 && int(win.replica[i]) < nReplicas {
			perReplica[win.replica[i]]++
		}
	}
	m["client.overhead_us"] = median(overhead)
	res.samples["client.overhead_us"] = len(overhead)
	if len(routerSelf) > 0 {
		m["cluster.router_self_us"] = median(routerSelf)
		res.samples["cluster.router_self_us"] = len(routerSelf)
	}
	for kind, xs := range handler {
		s := sortedCopy(xs)
		m["serve.handler_us."+kind+".p50"] = quantile(s, 0.5)
		m["serve.handler_us."+kind+".p90"] = quantile(s, 0.9)
		res.samples["serve.handler_us."+kind+".p50"] = len(s)
		res.samples["serve.handler_us."+kind+".p90"] = len(s)
	}
	if routers != nil && nReplicas > 1 {
		lo, hi := perReplica[0], perReplica[0]
		for _, c := range perReplica {
			lo, hi = min(lo, c), max(hi, c)
		}
		if lo > 0 {
			m["cluster.replica_skew"] = float64(hi) / float64(lo)
		}
		res.note("requests per replica (traced window): %v", perReplica)
	}
}

// decodeFor returns a zero value of the response type for a body kind.
func responseFor(kind int) any {
	if kind == kindPlan {
		return &serve.PlanResponse{}
	}
	return &serve.PredictResponse{}
}

// requestFor returns a zero value of the request type for a body kind.
func requestFor(kind int) any {
	if kind == kindPlan {
		return &serve.PlanRequest{}
	}
	return &serve.PredictRequest{}
}

// jsonCodecBench times encoding/json on the workload's own request
// bodies (decode) and response values (encode), in sequence order, and
// sets serve.decode_ns and serve.encode_ns per request.
func jsonCodecBench(res *result, bodies []body, refs [][]byte, seq []int) error {
	resps := make([]any, len(bodies))
	for i, b := range bodies {
		resps[i] = responseFor(b.kind)
		if err := json.Unmarshal(refs[i], resps[i]); err != nil {
			return fmt.Errorf("decoding reference response: %w", err)
		}
	}
	if len(seq) > codecOps {
		seq = seq[:codecOps]
	}
	start := time.Now()
	for _, bi := range seq {
		if err := json.Unmarshal(bodies[bi].json, requestFor(bodies[bi].kind)); err != nil {
			return err
		}
	}
	res.metrics["serve.decode_ns"] = float64(time.Since(start).Nanoseconds()) / float64(len(seq))
	start = time.Now()
	for _, bi := range seq {
		if _, err := json.Marshal(resps[bi]); err != nil {
			return err
		}
	}
	res.metrics["serve.encode_ns"] = float64(time.Since(start).Nanoseconds()) / float64(len(seq))
	res.samples["serve.decode_ns"] = len(seq)
	res.samples["serve.encode_ns"] = len(seq)
	return nil
}

// codecOps bounds the requests the JSON timing replays.
const codecOps = 20000

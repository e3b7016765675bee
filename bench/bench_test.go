package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/lbm"
	"repro/internal/serve"
)

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.25, 2}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile([]float64{7}, 0.9); got != 7 {
		t.Errorf("single sample: %v", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("empty slice must give NaN")
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of unsorted input = %v", got)
	}
}

// The tail rule: report the highest ladder percentile that has at least
// ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want int
		ok   bool
	}{
		{19, 0, false},
		{20, 5000, true},
		{99, 5000, true},
		{100, 9000, true},
		{999, 9000, true},
		{1000, 9900, true},
		{9999, 9900, true},
		{10000, 9990, true},
		{100000, 9999, true},
		{10000000, 9999, true},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %d, %v; want %d, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestThroughputSegments(t *testing.T) {
	// 40 back-to-back 1 ms operations: 1000 ops/s however it is cut.
	lat := make([]int64, 40)
	start := make([]int64, 40)
	for i := range lat {
		lat[i], start[i] = 1e6, int64(i)*1e6
	}
	if got := median(segmentRates(lat, start)); math.Abs(got-1000) > 1e-9 {
		t.Errorf("concurrent throughput = %v, want 1000", got)
	}
	if got := sequentialRate(lat); math.Abs(got-1000) > 1e-9 {
		t.Errorf("sequential throughput = %v, want 1000", got)
	}
	// One stalled segment does not move the median segment rate.
	lat[0] = 50e6
	for i := 1; i < len(start); i++ {
		start[i] += 49e6
	}
	if got := median(segmentRates(lat, start)); math.Abs(got-1000) > 1e-9 {
		t.Errorf("throughput with one stall = %v, want 1000", got)
	}
	if got := len(segmentRates(lat[:5], start[:5])); got != 5 {
		t.Errorf("%d segments from 5 operations", got)
	}
}

func TestGenWarmDeterministic(t *testing.T) {
	systems := catalogSystems()
	const blocks = 25
	n := blocks * warmBlock
	a, b := genWarm(7, n, systems), genWarm(7, n, systems)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different serve-warm inputs")
	}
	c := genWarm(8, n, systems)
	if reflect.DeepEqual(a.seq, c.seq) && reflect.DeepEqual(a.bodies, c.bodies) {
		t.Fatal("different seeds gave the same serve-warm inputs")
	}
	universe := map[string]bool{}
	for _, u := range warmUniverse(systems) {
		universe[string(u.json)] = true
	}
	for _, w := range []requestSet{a, c} {
		kinds := make([]int, numKinds)
		for _, i := range w.seq {
			kinds[w.bodies[i].kind]++
		}
		want := []int{warmSingleMix * blocks, warmBatchMix * blocks, warmDirectMix * blocks, warmPlanMix * blocks}
		if !reflect.DeepEqual(kinds, want) {
			t.Errorf("kind mix %v, want %v", kinds, want)
		}
		for _, b := range w.bodies {
			if !universe[string(b.json)] {
				t.Errorf("body outside the golden universe: %s", b.json)
			}
		}
	}
}

func TestGenColdDeterministic(t *testing.T) {
	systems := catalogSystems()
	const decks = 4
	a, b := genCold(3, decks, systems), genCold(3, decks, systems)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different calibrate-cold inputs")
	}
	if reflect.DeepEqual(a, genCold(4, decks, systems)) {
		t.Fatal("different seeds gave the same calibrate-cold inputs")
	}
	golden := coldGoldenBodies(systems)
	if !reflect.DeepEqual(a[:len(golden)], golden) {
		t.Error("a run must start with the golden bodies")
	}
	if len(a) != len(golden)+decks*len(coldDeck) {
		t.Fatalf("%d requests, want %d golden and %d decks of %d", len(a), len(golden), decks, len(coldDeck))
	}
	seen := map[int64]bool{}
	perKindGeometry := map[[2]string]int{}
	for i, b := range a {
		var probe struct {
			Workload struct{ Geometry string }
			Seed     int64
		}
		if err := json.Unmarshal(b.json, &probe); err != nil {
			t.Fatal(err)
		}
		if seen[probe.Seed] {
			t.Errorf("calibration seed %d sent twice", probe.Seed)
		}
		seen[probe.Seed] = true
		if i >= len(golden) {
			perKindGeometry[[2]string{kindName(b.kind), probe.Workload.Geometry}]++
		}
	}
	// Every deck has the deck's kinds; each kind takes the geometries in turn.
	for d := 0; d < decks; d++ {
		kinds := map[int]int{}
		for _, b := range a[len(golden)+d*len(coldDeck) : len(golden)+(d+1)*len(coldDeck)] {
			kinds[b.kind]++
		}
		if kinds[kindSingle] != coldSingleMix || kinds[kindDirect] != coldDirectMix || kinds[kindPlan] != coldPlanMix || kinds[kindBatch] != 0 {
			t.Errorf("deck %d has kinds %v", d, kinds)
		}
	}
	for _, k := range []int{kindSingle, kindDirect, kindPlan} {
		total := decks * countKind(coldDeck, k)
		for _, g := range coldGeometries {
			c := perKindGeometry[[2]string{kindName(k), g}]
			if c < total/len(coldGeometries) || c > total/len(coldGeometries)+1 {
				t.Errorf("%s %s: %d of %d requests", kindName(k), g, c, total)
			}
		}
	}
}

func kindName(k int) string { return [numKinds]string{"single", "batch", "direct", "plan"}[k] }

func countKind(kinds []int, k int) int {
	n := 0
	for _, x := range kinds {
		if x == k {
			n++
		}
	}
	return n
}

func TestWarmGoldenCoversUniverse(t *testing.T) {
	var g warmGolden
	if err := loadGolden("serve-warm.json", &g); err != nil {
		t.Fatal(err)
	}
	u := warmUniverse(catalogSystems())
	if len(g) != len(u) {
		t.Errorf("golden has %d bodies, universe %d", len(g), len(u))
	}
	for _, b := range u {
		if _, ok := g[string(b.json)]; !ok {
			t.Errorf("no golden for %s", b.json)
		}
	}
}

// The serve-warm gate is byte-exact: flipping any single byte of a
// response fails it.
func TestWarmGateRejectsOneByte(t *testing.T) {
	req := []byte(`{"workload":{"geometry":"cylinder","scale":4},"ranks":[64]}`)
	resp := []byte(`{"predictions":[{"system":"TRC","model":"generalized","ranks":64,"mflups":95.55}],"cache_hits":1,"cache_misses":0,"cache_coalesced":0}` + "\n")
	g := warmGolden{string(req): hashHex(resp)}
	if err := g.checkHash(req, resp); err != nil {
		t.Fatalf("unchanged response rejected: %v", err)
	}
	for i := range resp {
		bad := append([]byte(nil), resp...)
		bad[i] ^= 0x01
		if g.checkHash(req, bad) == nil {
			t.Fatalf("flipping byte %d (%q) passed the gate", i, resp[i])
		}
	}
	if g.checkHash([]byte(`{}`), resp) == nil {
		t.Error("a body without a golden passed the gate")
	}
}

// The calibrate-cold gate compares numbers within coldRelTol: a change in
// a significant digit fails, round-off below the tolerance does not.
func TestColdGateTolerance(t *testing.T) {
	var golden []coldGoldenEntry
	if err := loadGolden("calibrate-cold.json", &golden); err != nil {
		t.Fatal(err)
	}
	if len(golden) != len(coldGoldenBodies(catalogSystems())) {
		t.Fatalf("%d cold goldens, want one per golden body", len(golden))
	}
	for i, g := range golden {
		if err := compareJSON(g.Body, coldGoldenBodies(catalogSystems())[i].json, 0); err != nil {
			t.Errorf("golden %d was recorded for another body: %v", i, err)
		}
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, golden[0].Response); err != nil {
		t.Fatal(err)
	}
	want := compact.Bytes()
	if err := compareJSON(want, want, coldRelTol); err != nil {
		t.Fatalf("golden rejects itself: %v", err)
	}
	var v map[string]any
	if err := json.Unmarshal(want, &v); err != nil {
		t.Fatal(err)
	}
	p := v["predictions"].([]any)[0].(map[string]any)
	mflups := p["mflups"].(float64)

	p["mflups"] = mflups * (1 + 1e-12)
	near, _ := json.Marshal(v)
	if err := compareJSON(want, near, coldRelTol); err != nil {
		t.Errorf("round-off below tolerance rejected: %v", err)
	}
	p["mflups"] = mflups

	s := string(want)
	pos := strings.Index(s, `"mflups":`) + len(`"mflups":`)
	for _, perturbed := range []string{
		s[:pos] + string(rune(s[pos]+1)) + s[pos+1:], // leading digit of mflups
		strings.Replace(s, `"TRC"`, `"TRD"`, 1),      // a string
		strings.Replace(s, `"cache_misses":1`, `"cache_misses":2`, 1),
		strings.Replace(s, `"model"`, `"modem"`, 1), // a key
	} {
		if perturbed == s {
			t.Fatal("perturbation did not change the response")
		}
		if compareJSON(want, []byte(perturbed), coldRelTol) == nil {
			t.Errorf("perturbed response passed the gate: %.120s", perturbed)
		}
	}
}

// The serve-warm window gate: every response must equal its body's warm
// reference byte for byte; a changed byte or another body's response
// fails it.
func TestWarmRefGateRejectsOneByte(t *testing.T) {
	w := requestSet{bodies: []body{{kind: kindSingle, json: []byte(`{"a":1}`)}, {kind: kindPlan, json: []byte(`{"b":2}`)}}, seq: []int{1, 0, 1}}
	refs := [][]byte{[]byte(`{"predictions":[]}`), []byte(`{"recommended":null}`)}
	gate := matchesWarmRef(w, refs)
	for i, bi := range w.seq {
		if err := gate(i, refs[bi]); err != nil {
			t.Fatalf("request %d: its own reference rejected: %v", i, err)
		}
	}
	for i := range refs[1] {
		bad := append([]byte(nil), refs[1]...)
		bad[i] ^= 0x01
		if gate(0, bad) == nil {
			t.Fatalf("flipping byte %d passed the gate", i)
		}
	}
	if gate(1, refs[1]) == nil {
		t.Error("another body's response passed the gate")
	}
	if gate(2, append(append([]byte(nil), refs[1]...), '\n')) == nil {
		t.Error("a response with an extra byte passed the gate")
	}
}

// checkCold accepts a well-formed cold answer and rejects each kind of
// wrong one.
func TestCheckColdRejects(t *testing.T) {
	systems := catalogSystems()
	pred := func(n, hits, misses int, mflups float64) []byte {
		r := serve.PredictResponse{CacheHits: hits, CacheMisses: misses}
		for i := 0; i < n; i++ {
			r.Predictions = append(r.Predictions, serve.PredictionJSON{System: systems[0], Model: "direct", Ranks: 4 << i, MFLUPS: mflups})
		}
		return mustJSON(r)
	}
	plan := func(n int, recommended bool) []byte {
		r := serve.PlanResponse{Objective: "min-cost"}
		for i := 0; i < n; i++ {
			r.Assessments = append(r.Assessments, serve.AssessmentJSON{System: systems[i%len(systems)], Ranks: coldRanks, MFLUPS: 10})
		}
		if recommended {
			r.Recommended = &r.Assessments[0]
		}
		return mustJSON(r)
	}
	direct := coldBody(kindDirect, "aorta", systems[0], coldDirectRankSets[0], 1)
	planBody := coldBody(kindPlan, "aorta", "", nil, 2)
	ranks := len(coldDirectRankSets[0])
	if err := checkCold(direct, pred(ranks, 0, 1, 12.5), ranks, len(systems)); err != nil {
		t.Fatalf("good predict rejected: %v", err)
	}
	if err := checkCold(planBody, plan(len(systems), true), 0, len(systems)); err != nil {
		t.Fatalf("good plan rejected: %v", err)
	}
	for _, c := range []struct {
		name string
		b    body
		resp []byte
	}{
		{"one prediction too few", direct, pred(ranks-1, 0, 1, 12.5)},
		{"one prediction too many", direct, pred(ranks+1, 0, 1, 12.5)},
		{"two cache misses", direct, pred(ranks, 0, 2, 12.5)},
		{"no cache miss", direct, pred(ranks, 0, 0, 12.5)},
		{"a cache hit", direct, pred(ranks, 1, 1, 12.5)},
		{"mflups 0", direct, pred(ranks, 0, 1, 0)},
		{"mflups negative", direct, pred(ranks, 0, 1, -1)},
		{"not JSON", direct, []byte(`{"predictions":`)},
		{"plan without recommended", planBody, plan(len(systems), false)},
		{"plan missing a system", planBody, plan(len(systems)-1, true)},
	} {
		if checkCold(c.b, c.resp, ranks, len(systems)) == nil {
			t.Errorf("%s: passed the gate", c.name)
		}
	}
}

// The calibrate-cold build-count gate: one build per predict, one per
// catalog system per plan; a count off by one either way fails.
func TestBuildCountGate(t *testing.T) {
	systems := len(catalogSystems())
	bodies := genCold(5, 2, catalogSystems())
	want := 0
	for _, b := range bodies {
		switch b.kind {
		case kindSingle, kindDirect:
			want++
		case kindPlan:
			want += systems
		default:
			t.Fatalf("unexpected kind %d in a cold run", b.kind)
		}
	}
	if err := checkBuilds(bodies, systems, want); err != nil {
		t.Fatalf("exact count rejected: %v", err)
	}
	for _, got := range []int{want - 1, want + 1, 0} {
		if checkBuilds(bodies, systems, got) == nil {
			t.Errorf("%d builds (want %d) passed the gate", got, want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	router := interval{100, 200}
	replica := interval{120, 170}
	if got := selfTime(router, []interval{replica}); got != router.dur()-replica.dur() {
		t.Errorf("router self = %d, want router - replica = %d", got, router.dur()-replica.dur())
	}
	// Overlapping children count once; parts outside the parent are clipped.
	if got := selfTime(router, []interval{{110, 150}, {140, 160}, {190, 250}, {0, 50}}); got != 100-50-10 {
		t.Errorf("self with overlap and clipping = %d, want 40", got)
	}
	if got := selfTime(router, nil); got != 100 {
		t.Errorf("self without children = %d", got)
	}
}

// splitRequests derives cluster.router_self_us as router handler time
// minus replica handler time, and client.overhead_us as client latency
// minus router handler time.
func TestSplitRequestsSelfTimes(t *testing.T) {
	w := requestSet{bodies: []body{{kind: kindSingle, json: []byte(`{}`)}}, seq: []int{0, 0, 0}}
	routers, replicas := newSlots(3), newSlots(3)
	win := pass{latNS: make([]int64, 3), startNS: make([]int64, 3), replica: []int8{0, 1, 1}}
	for i := 0; i < 3; i++ {
		base := int64(1_000_000 * (i + 1))
		win.startNS[i], win.latNS[i] = base, 100_000 // client: 100 us
		routers.start[i].Store(base + 10_000)        // router: 80 us
		routers.end[i].Store(base + 90_000)
		replicas.start[i].Store(base + 20_000) // replica: 50 us
		replicas.end[i].Store(base + 70_000)
	}
	res := newResult(true)
	splitRequests(res, w, win, routers, replicas, 2)
	if got := res.metrics["cluster.router_self_us"]; got != 30 {
		t.Errorf("router self = %v us, want 80 - 50 = 30", got)
	}
	if got := res.metrics["client.overhead_us"]; got != 20 {
		t.Errorf("client overhead = %v us, want 100 - 80 = 20", got)
	}
	if got := res.metrics["serve.handler_us.predict.p50"]; got != 50 {
		t.Errorf("replica handler p50 = %v us, want 50", got)
	}
	if got := res.metrics["cluster.replica_skew"]; got != 2 {
		t.Errorf("replica skew = %v, want 2/1", got)
	}
	if len(res.spans.spans) != 9 {
		t.Errorf("%d spans, want client, router and replica per request", len(res.spans.spans))
	}
}

// The simulate gates: the serial state at simGoldenSteps matches the
// golden, and fails once a value is moved; par.Runner matches serial and
// fails once serial is perturbed; the proxy conserves mass.
func TestSimulateGates(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the aorta@12 domain")
	}
	var golden simGolden
	if err := loadGolden("simulate.json", &golden); err != nil {
		t.Fatal(err)
	}
	ks, err := newKernelSet(2)
	if err != nil {
		t.Fatal(err)
	}
	ks.serial.Run(simGoldenSteps)
	if err := checkSerial(ks.serial, golden); err != nil {
		t.Fatalf("seed state fails its golden: %v", err)
	}
	c := ks.serial.Cell(1000)
	c[0], c[1] = c[1], c[0] // mass-preserving: only the checksum can see it
	ks.serial.SetCell(1000, c)
	if checkSerial(ks.serial, golden) == nil {
		t.Error("a moved distribution passed the simulate golden")
	}
	c[0], c[1] = c[1], c[0]
	ks.serial.SetCell(1000, c)
	bad := golden
	bad.Mass *= 1 + 1e-6
	if checkSerial(ks.serial, bad) == nil {
		t.Error("a perturbed golden mass passed")
	}

	ks.runner.Run(simGoldenSteps)
	ks.proxy.Run(proxyStepsPerWindow)
	res := newResult(false)
	ks.checkFinal(res)
	if res.failed != 0 {
		t.Fatalf("final checks failed on the seed state: %v", res.errs)
	}
	c[5] += 1e-9
	ks.serial.SetCell(1000, c)
	res = newResult(false)
	ks.checkFinal(res)
	if res.failed != 1 {
		t.Errorf("perturbed serial state: %d failures, want the par check to fail", res.failed)
	}
}

func TestStateChecksumSeesPlacement(t *testing.T) {
	cells := make([][lbm.NQ]float64, 3)
	for i := range cells {
		for q := range cells[i] {
			cells[i][q] = float64(i*lbm.NQ + q)
		}
	}
	get := func(si int) [lbm.NQ]float64 { return cells[si] }
	a := stateChecksum(get, len(cells))
	cells[1][2], cells[2][2] = cells[2][2], cells[1][2]
	if stateChecksum(get, len(cells)) == a {
		t.Error("swapping two values left the checksum unchanged")
	}
}

// BENCHMARK.json must list exactly the workloads and metrics the program
// reports, with the same units.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for w := range workloads {
		want = append(want, w)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, program has %v", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit string }, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: %d metrics, program reports %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d] = %s %s, program reports %s %s", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// Command perfbench is the repository benchmark. It drives one workload
// per run from a single process and prints every end-to-end metric
// (untraced run) or every per-layer metric (traced run), then one JSON
// result line:
//
//	bash bench/run.sh --workload serve-warm --seed 1 --seconds 20 --trace 0
//
// Workloads: serve-warm (cache-hit planning traffic through the cluster
// router), calibrate-cold (never-seen calibration keys on one serve
// replica) and simulate (the LBM kernels against same-run STREAM). See
// bench/README.md for every metric, its unit and the layer it belongs to.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

type metricDef struct{ name, unit string }

// ratioUnit is MFLUPS per GB/s of same-run STREAM Copy bandwidth.
const ratioUnit = "MFLUPS/GBps"

// endToEnd lists the metrics of an untraced run, in report order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_rps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"heap_live_mb", "MB"},
	{"harvey_mflups_per_gbs", ratioUnit},
	{"harvey_par_mflups_per_gbs", ratioUnit},
	{"proxy_mflups_per_gbs", ratioUnit},
}

// perLayer lists the metrics of a traced run, in report order. A layer
// a workload does not exercise reports 0.
var perLayer = []metricDef{
	{"client.overhead_us", "us"},
	{"client.latency_p99_ms", "ms"},
	{"cluster.router_self_us", "us"},
	{"cluster.retries", "count"},
	{"cluster.denied", "count"},
	{"cluster.replica_skew", "ratio"},
	{"serve.handler_us.predict.p50", "us"},
	{"serve.handler_us.predict.p90", "us"},
	{"serve.handler_us.plan.p50", "us"},
	{"serve.handler_us.plan.p90", "us"},
	{"serve.decode_ns", "ns"},
	{"serve.encode_ns", "ns"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.builds_per_req", "count"},
	{"serve.shed", "count"},
	{"perfmodel.predict_ns.tier0", "ns"},
	{"perfmodel.predict_ns.tier1", "ns"},
	{"perfmodel.predict_ns.tier2", "ns"},
	{"perfmodel.predict_ns.auto", "ns"},
	{"perfmodel.predict_ns.direct", "ns"},
	{"perfmodel.characterize_ms", "ms"},
	{"perfmodel.calibrate_general_ms", "ms"},
	{"decomp.rcb_ms", "ms"},
	{"decomp.rcb_calls_per_build", "count"},
	{"geometry.build_ms", "ms"},
	{"lbm.new_sparse_ms", "ms"},
	{"dashboard.assess_us", "us"},
	{"obs.spans_retained_per_req", "count"},
	{"runtime.allocs_per_req", "count"},
	{"runtime.alloc_bytes_per_req", "B"},
	{"runtime.gc_cpu_pct", "%"},
	{"runtime.first_setup_s", "s"},
	{"lbm.harvey_mflups", "MFLUPS"},
	{"lbm.proxy_mflups", "MFLUPS"},
	{"lbm.harvey_bytes_per_flup", "B"},
	{"lbm.harvey_roofline_pct", "%"},
	{"par.mflups", "MFLUPS"},
	{"par.comm_share_pct", "%"},
	{"par.imbalance", "ratio"},
	{"mbench.stream_copy_gbs", "GB/s"},
	{"trace.overhead_latency_pct", "%"},
	{"trace.overhead_throughput_pct", "%"},
}

// workload is one benchmark workload: the function that runs it and
// whether an untraced run takes its kernel ratios from a probe after that
// function has returned (and released its system under test).
type workload struct {
	drive func(cfg runConfig, res *result) error
	probe bool
}

var workloads = map[string]workload{
	"serve-warm":     {runServeWarm, true},
	"calibrate-cold": {runCalibrateCold, true},
	"simulate":       {runSimulate, false},
}

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	clients  int // closed-loop clients, threads and ranks: nproc
}

// setupRepeats is how many times a run builds its system under test, at
// least; setup_s is the median (see timeSetups).
const setupRepeats = 7

// result collects one run's outcome.
type result struct {
	mu        sync.Mutex
	attempted int
	failed    int
	errs      []string

	metrics map[string]float64 // by metric name
	samples map[string]int     // sample counts behind timing metrics
	notes   []string           // host record and context lines
	spans   *spanLog           // traced runs only

	streamNoted bool // the host record has same-run STREAM bandwidth
}

func newResult(traced bool) *result {
	r := &result{metrics: map[string]float64{}, samples: map[string]int{}}
	if traced {
		r.spans = &spanLog{}
	}
	return r
}

// fail counts a failed operation and keeps the first few reasons.
func (r *result) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

func (r *result) attempt(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted += n
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// deadline bounds a run; the benchmark must end well within 180 s.
const deadline = 170 * time.Second

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "serve-warm, calibrate-cold or simulate")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 15, "nominal measuring time; sets the fixed amount of work")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	record := fs.String("record-goldens", "", "record goldens into this directory and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *record != "" {
		if err := recordGoldens(*record); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	wl, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload serve-warm|calibrate-cold|simulate, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	timer := time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s did not finish within %v\n", *workload, deadline)
		os.Exit(3)
	})
	defer timer.Stop()

	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, traced: *trace == 1, clients: runtime.NumCPU()}
	res := newResult(cfg.traced)
	hostRecord(cfg, res)
	err := wl.drive(cfg, res)
	if err == nil && wl.probe && !cfg.traced {
		err = kernelProbe(cfg, res)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if !res.streamNoted {
		noteStream(res, nil)
	}
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
		path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := res.spans.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			return 1
		}
		res.note("spans: %d written to %s", len(res.spans.spans), path)
	}
	out, err := report(cfg, res, defs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Print(out)
	return 0
}

// hostRecord notes what the numbers depend on besides the code.
func hostRecord(cfg runConfig, res *result) {
	res.note("host: nproc=%d GOMAXPROCS=%d go=%s %s/%s", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	res.note("host: clients/threads/ranks=%d (nproc)", cfg.clients)
	res.note("host: the reference VM reports a 300 MiB L3, so STREAM's arrays >= 4x LLC rule cannot be met on a few-core VM; the arrays are sized near the kernels' working sets instead")
}

// jsonResult is the final output line.
type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report renders the human-readable lines and the JSON result line.
func report(cfg runConfig, res *result, defs []metricDef) (string, error) {
	var b strings.Builder
	mode := "untraced"
	if cfg.traced {
		mode = "traced"
	}
	fmt.Fprintf(&b, "# workload=%s seed=%d seconds=%d %s\n", cfg.workload, cfg.seed, cfg.seconds, mode)
	for _, n := range res.notes {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	jr := jsonResult{Attempted: res.attempted, Failed: res.failed, Metrics: map[string]jsonMetric{}}
	for _, d := range defs {
		v := res.metrics[d.name] // 0 for a layer the workload does not exercise
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s is %v", d.name, v)
		}
		samples := ""
		if n, ok := res.samples[d.name]; ok {
			samples = fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Fprintf(&b, "%-32s %14.6g %-12s%s\n", d.name, v, d.unit, samples)
		jr.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	var extra []string
	for k := range res.samples {
		if _, isMetric := jr.Metrics[k]; !isMetric {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	for _, k := range extra {
		fmt.Fprintf(&b, "# samples %s: %d\n", k, res.samples[k])
	}
	for _, e := range res.errs {
		fmt.Fprintf(&b, "# FAILED: %s\n", e)
	}
	if jr.Attempted < 1 {
		return "", fmt.Errorf("no operation attempted")
	}
	jr.Correct = res.failed == 0
	line, err := json.Marshal(jr)
	if err != nil {
		return "", err
	}
	b.Write(line)
	b.WriteByte('\n')
	return b.String(), nil
}

package main

import (
	"runtime"
	"time"
)

// rateSegments is how many equal request-count segments a concurrent
// window is cut into for throughput_rps (see segmentRates).
const rateSegments = 20

// setLatency sets throughput_rps to rate and the latency percentiles
// from the run's per-operation latencies, and notes the highest
// percentile the sample count supports.
func setLatency(res *result, latNS []int64, rate float64) {
	n := len(latNS)
	ms := sortedCopy(nsToMS(latNS))
	res.metrics["throughput_rps"] = rate
	res.metrics["latency_p50_ms"] = quantile(ms, 0.5)
	res.metrics["latency_p90_ms"] = quantile(ms, 0.9)
	res.samples["throughput_rps"] = n
	res.samples["latency_p50_ms"] = n
	res.samples["latency_p90_ms"] = n
	if p, ok := tailPercentile(n); ok {
		res.note("tail: p%g = %.4g ms (n=%d, >= %d samples beyond it)", float64(p)/100, quantile(ms, float64(p)/10000), n, minBeyond)
	}
}

// segmentRates cuts one concurrent window into rateSegments consecutive
// equal request-count segments (operations are dispatched in index
// order) and returns each segment's operations per second of wall time.
// Their median is the window's throughput, which a burst of host noise in
// one segment does not move.
func segmentRates(latNS, startNS []int64) []float64 {
	n := len(latNS)
	k := min(rateSegments, n)
	rates := make([]float64, k)
	for j := range rates {
		lo, hi := j*n/k, (j+1)*n/k
		rates[j] = float64(hi-lo) / (float64(wallNS(latNS[lo:hi], startNS[lo:hi])) / 1e9)
	}
	return rates
}

// sequentialRate is operations per second of their summed time, for
// operations that run one after another.
func sequentialRate(latNS []int64) float64 {
	var sum int64
	for _, l := range latNS {
		sum += l
	}
	return float64(len(latNS)) / (float64(sum) / 1e9)
}

// wallNS is the wall time from the first start to the last end.
func wallNS(latNS, startNS []int64) int64 {
	first, last := startNS[0], startNS[0]+latNS[0]
	for i := range latNS {
		first = min(first, startNS[i])
		last = max(last, startNS[i]+latNS[i])
	}
	return last - first
}

// setOverhead reports how much a traced pass lost against the untraced
// pass of the same work on the same set-up: median latency and
// throughput.
func setOverhead(m map[string]float64, untracedNS, tracedNS []int64, untracedRate, tracedRate float64) {
	if p0 := median(nsToMS(untracedNS)); p0 > 0 {
		m["trace.overhead_latency_pct"] = 100 * (median(nsToMS(tracedNS))/p0 - 1)
	}
	if untracedRate > 0 {
		m["trace.overhead_throughput_pct"] = 100 * (1 - tracedRate/untracedRate)
	}
}

// heapLiveMB forces a collection and returns the live heap in MB (1e6 B).
func heapLiveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// setHeap sets heap_live_mb to the median of the parts' readings.
func setHeap(res *result, heaps []float64) {
	res.metrics["heap_live_mb"] = median(heaps)
	res.samples["heap_live_mb"] = len(heaps)
	res.note("heap_live_mb after each part (MB): %.5g", heaps)
}

// timeSetups builds the system under test `parts` times and, when
// use is given, runs part r of the work on build r. Every build but the
// last is then closed; the last is returned. An error from build or use
// ends the loop (use's build is closed first). Each build after the first
// starts from a forced collection with the previous one released, so its
// garbage is not charged to the next. setup_s is the median build time.
// The first build is timed from process start, so it alone pays package
// initialisation and first-use costs (embedded tables, sync.Once); the
// median leaves them out, so the first build's time is reported as
// runtime.first_setup_s and every build's time is printed.
func timeSetups[T any](res *result, parts int, build func() (T, error), use func(v T, r int) error, closeFn func(T)) (T, error) {
	var setups []float64
	var cur T
	for r := 0; r < parts; r++ {
		start := processStart
		if r > 0 {
			closeFn(cur)
			var released T
			cur = released
			runtime.GC()
			start = time.Now()
		}
		v, err := build()
		if err != nil {
			return v, err
		}
		cur = v
		setups = append(setups, time.Since(start).Seconds())
		if use != nil {
			if err := use(v, r); err != nil {
				closeFn(v)
				return v, err
			}
		}
	}
	res.metrics["setup_s"] = median(setups)
	res.samples["setup_s"] = len(setups)
	res.metrics["runtime.first_setup_s"] = setups[0]
	res.note("setup: %.4g s median of %d builds; each build (s, the first from process start): %.4g", median(setups), len(setups), setups)
	return cur, nil
}

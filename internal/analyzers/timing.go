package analyzers

import (
	"sync"
	"sync/atomic"
	"time"
)

// This file is the optional wall-time instrumentation behind
// cmd/lint -timing: per-check durations for one run, plus the shared
// setup stages no check owns (parse, typecheck, callgraph, cfg), so a
// BenchmarkRunAll CI gate failure can be pinned on the check or stage
// that grew slow instead of bisected by hand. Collection is off unless a
// caller installs a sink, so the library's normal path costs a single
// atomic load per check invocation.

// Timings accumulates the durations of one lint run.
type Timings struct {
	mu     sync.Mutex
	checks map[string]time.Duration
	stages map[string]time.Duration
}

// timingSink is the active collector (nil when disabled).
var timingSink atomic.Pointer[Timings]

// CollectTimings installs and returns a fresh collector; every
// subsequent Run records into it until StopTimings.
func CollectTimings() *Timings {
	t := &Timings{
		checks: map[string]time.Duration{},
		stages: map[string]time.Duration{},
	}
	timingSink.Store(t)
	return t
}

// StopTimings uninstalls the active collector.
func StopTimings() {
	timingSink.Store(nil)
}

// Checks returns the accumulated per-check durations.
func (t *Timings) Checks() map[string]time.Duration { return t.snapshot(t.checks) }

// Stages returns the accumulated durations of the shared setup stages.
func (t *Timings) Stages() map[string]time.Duration { return t.snapshot(t.stages) }

func (t *Timings) snapshot(m map[string]time.Duration) map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]time.Duration, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func (t *Timings) addCheck(id string, d time.Duration) {
	t.mu.Lock()
	t.checks[id] += d
	t.mu.Unlock()
}

func (t *Timings) addStage(name string, d time.Duration) {
	t.mu.Lock()
	t.stages[name] += d
	t.mu.Unlock()
}

// timeCheck runs one check invocation, attributing its wall time when
// collection is on.
func timeCheck(id string, f func()) {
	t := timingSink.Load()
	if t == nil {
		f()
		return
	}
	start := time.Now()
	f()
	t.addCheck(id, time.Since(start))
}

// timeStage runs one shared setup stage, attributing its wall time
// when collection is on.
func timeStage(name string, f func()) {
	t := timingSink.Load()
	if t == nil {
		f()
		return
	}
	start := time.Now()
	f()
	t.addStage(name, time.Since(start))
}

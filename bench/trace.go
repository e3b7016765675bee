package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// processStart anchors every timestamp the benchmark records, and
// setup_s of the first set-up.
var processStart = time.Now()

func sinceStart(t time.Time) int64 { return t.Sub(processStart).Nanoseconds() }

// requestIDHeader carries the client's request index through the router
// to the replica (the router forwards it), so both handler timers can
// attribute their time to the request.
const requestIDHeader = "X-Request-Id"

// span is one interval the traced run records around a call into a
// layer's public API. Spans of one request or window share Trace.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0: root
	Trace   int    `json:"trace"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since process start
	EndNS   int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run writes them out.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

// add records a span and returns its ID.
func (l *spanLog) add(trace, parent int, layer, name string, start, end int64) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Trace: trace, Layer: layer, Name: name, StartNS: start, EndNS: end})
	return id
}

// timed runs fn inside a span and returns its duration.
func (l *spanLog) timed(trace, parent int, layer, name string, fn func()) time.Duration {
	t0 := time.Now()
	fn()
	t1 := time.Now()
	l.add(trace, parent, layer, name, sinceStart(t0), sinceStart(t1))
	return t1.Sub(t0)
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return w.Flush()
}

// interval is a half-open time range in nanoseconds.
type interval struct{ start, end int64 }

func (iv interval) dur() int64 { return iv.end - iv.start }

// selfTime is a span's duration minus the part of it that its children
// cover (overlapping children counted once).
func selfTime(parent interval, children []interval) int64 {
	var clipped []interval
	for _, c := range children {
		s, e := max(c.start, parent.start), min(c.end, parent.end)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var covered, curS, curE int64
	open := false
	for _, c := range clipped {
		switch {
		case !open:
			curS, curE, open = c.start, c.end, true
		case c.start <= curE:
			curE = max(curE, c.end)
		default:
			covered += curE - curS
			curS, curE = c.start, c.end
		}
	}
	if open {
		covered += curE - curS
	}
	return parent.dur() - covered
}

// slots holds per-request handler intervals, indexed by request ID.
// Several timers may share one slots value when each request reaches
// only one of them (the replicas behind the router).
type slots struct{ start, end []atomic.Int64 }

func newSlots(n int) *slots {
	return &slots{start: make([]atomic.Int64, n), end: make([]atomic.Int64, n)}
}

// interval returns request i's handler interval; ok is false when no
// timer saw request i.
func (s *slots) interval(i int) (interval, bool) {
	iv := interval{s.start[i].Load(), s.end[i].Load()}
	return iv, iv.end > 0
}

// handlerTimer wraps a layer's http.Handler and, while on, records when
// the handler started and returned for each request carrying an
// X-Request-Id. Off, it is a pass-through.
type handlerTimer struct {
	next  http.Handler
	on    *atomic.Bool
	slots *slots
}

func (h *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.on.Load() {
		h.next.ServeHTTP(w, r)
		return
	}
	id, err := strconv.Atoi(r.Header.Get(requestIDHeader))
	t0 := time.Now()
	h.next.ServeHTTP(w, r)
	t1 := time.Now()
	if err == nil && id >= 0 && id < len(h.slots.start) {
		h.slots.start[id].Store(sinceStart(t0))
		h.slots.end[id].Store(sinceStart(t1))
	}
}

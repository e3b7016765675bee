package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime/metrics"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// httpTarget serves a handler on a loopback port for the run.
type httpTarget struct {
	srv  *http.Server
	url  string
	done chan error
}

func listen(h http.Handler) (*httpTarget, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen on loopback: %w", err)
	}
	t := &httpTarget{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { t.done <- t.srv.Serve(ln) }()
	return t, nil
}

// close stops the server and waits for its accept loop to return.
func (t *httpTarget) close() {
	if err := t.srv.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: closing server:", err)
	}
	if err := <-t.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "perfbench: server stopped:", err)
	}
}

// client is one closed-loop HTTP caller's connection pool.
type client struct{ hc *http.Client }

func newClient(conns int) *client {
	return &client{hc: &http.Client{Transport: &http.Transport{
		MaxIdleConns: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends a JSON body and reads the whole response into buf. reqID,
// when non-negative, rides in the X-Request-Id header for the handler
// timers. It returns the status code and the X-Replica header.
func (c *client) post(url string, b []byte, reqID int, buf *bytes.Buffer) (int, string, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		return 0, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	if reqID >= 0 {
		req.Header.Set(requestIDHeader, strconv.Itoa(reqID))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, "", err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return resp.StatusCode, resp.Header.Get("X-Replica"), err
}

// getMetrics fetches a /v1/metrics JSON snapshot.
func (c *client) getMetrics(base string) ([]obs.Metric, error) {
	resp, err := c.hc.Get(base + "/v1/metrics?format=json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/metrics: status %d", resp.StatusCode)
	}
	var ms []obs.Metric
	if err := json.NewDecoder(resp.Body).Decode(&ms); err != nil {
		return nil, fmt.Errorf("GET /v1/metrics: %w", err)
	}
	return ms, nil
}

// closedLoop runs n operations on `clients` goroutines; each takes the
// next index as soon as its previous operation returns. do receives the
// client number and the operation index.
func closedLoop(clients, n int, do func(c, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				do(c, i)
			}
		}(c)
	}
	wg.Wait()
}

// pass is the outcome of one timed pass over a request sequence.
type pass struct {
	latNS   []int64
	startNS []int64
	replica []int8 // index into the replica names, -1 unknown; nil without replicas
	shed    int
}

// add appends another pass's requests to p.
func (p *pass) add(o pass) {
	p.latNS = append(p.latNS, o.latNS...)
	p.startNS = append(p.startNS, o.startNS...)
	p.replica = append(p.replica, o.replica...)
	p.shed += o.shed
}

// sendPass posts w.bodies[w.seq[i]] for every i to base plus the body's
// path, closed-loop on `clients` goroutines. A response must be a 200
// that passes check; anything else is a failed operation, and a 429 is
// also counted as shed. In a traced pass request i carries X-Request-Id
// i. With replica names, each request's X-Replica is recorded.
func sendPass(c *client, base string, w requestSet, clients int, traced bool, replicas []string, res *result, check func(i int, resp []byte) error) pass {
	n := len(w.seq)
	out := pass{latNS: make([]int64, n), startNS: make([]int64, n)}
	replicaIndex := map[string]int8{}
	if replicas != nil {
		out.replica = make([]int8, n)
		for i, name := range replicas {
			replicaIndex[name] = int8(i)
		}
	}
	var urls [numKinds]string
	for k := range urls {
		urls[k] = base + kindPaths[k]
	}
	bufs := make([]bytes.Buffer, clients)
	var shed atomic.Int64
	res.attempt(n)
	closedLoop(clients, n, func(ci, i int) {
		b := w.bodies[w.seq[i]]
		id := -1
		if traced {
			id = i
		}
		t0 := time.Now()
		code, rep, err := c.post(urls[b.kind], b.json, id, &bufs[ci])
		out.latNS[i] = time.Since(t0).Nanoseconds()
		out.startNS[i] = sinceStart(t0)
		if out.replica != nil {
			ri, ok := replicaIndex[rep]
			if !ok {
				ri = -1
			}
			out.replica[i] = ri
		}
		switch {
		case err != nil:
			res.fail("request %d: %v", i, err)
		case code == http.StatusTooManyRequests:
			shed.Add(1)
			res.fail("request %d shed (429)", i)
		case code != http.StatusOK:
			res.fail("request %d: status %d: %s", i, code, bytes.TrimSpace(bufs[ci].Bytes()))
		default:
			if err := check(i, bufs[ci].Bytes()); err != nil {
				res.fail("request %d: %v", i, err)
			}
		}
	})
	out.shed = int(shed.Load())
	return out
}

// runtimeSample is the process-wide allocator and GC state at one point.
type runtimeSample struct {
	allocObjects, allocBytes uint64
	gcCPU, totalCPU          float64
}

// minus returns the change from o to s.
func (s runtimeSample) minus(o runtimeSample) runtimeSample {
	return runtimeSample{s.allocObjects - o.allocObjects, s.allocBytes - o.allocBytes, s.gcCPU - o.gcCPU, s.totalCPU - o.totalCPU}
}

// plus sums two changes.
func (s runtimeSample) plus(o runtimeSample) runtimeSample {
	return runtimeSample{s.allocObjects + o.allocObjects, s.allocBytes + o.allocBytes, s.gcCPU + o.gcCPU, s.totalCPU + o.totalCPU}
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var r runtimeSample
	if s[0].Value.Kind() == metrics.KindUint64 {
		r.allocObjects = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		r.allocBytes = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = s[2].Value.Float64()
	}
	if s[3].Value.Kind() == metrics.KindFloat64 {
		r.totalCPU = s[3].Value.Float64()
	}
	return r
}

// runtimePerOp sets the runtime.* layer metrics from the change d over
// ops operations.
func runtimePerOp(m map[string]float64, d runtimeSample, ops int) {
	if ops <= 0 {
		return
	}
	m["runtime.allocs_per_req"] = float64(d.allocObjects) / float64(ops)
	m["runtime.alloc_bytes_per_req"] = float64(d.allocBytes) / float64(ops)
	if d.totalCPU > 0 {
		m["runtime.gc_cpu_pct"] = 100 * d.gcCPU / d.totalCPU
	}
}

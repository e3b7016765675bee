package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/serve"
)

// FuzzShardKeyMatchesCacheKey: for any single-system /v1/predict body a
// serve replica answers 200, the router's shard key is the replica's
// cache key. The replica's key is observed, not recomputed: a canonical
// body carrying only the decoded key fields must hit the cache entry the
// fuzzed body just used, and the router must key both bodies alike.
// Routing a body by any other key sends it to a replica that does not
// own its calibration.
func FuzzShardKeyMatchesCacheKey(f *testing.F) {
	for _, seed := range []string{
		// Trailing bytes: the replica decodes the first JSON value only.
		`{"workload":{"geometry":"cylinder","scale":5},"systems":["CSP-2"],"ranks":[8]} x`,
		`{"workload":{"geometry":"cylinder","scale":5},"systems":["CSP-2"],"ranks":[8]}`,
		`{"workload":{"geometry":"aorta","scale":4},"systems":["TRC"],"ranks":[2,4],"seed":7,"tier":"tier0"}`,
		`{"Workload":{"Geometry":"cylinder","Scale":3},"Systems":["CSP-2"],"ranks":[1],"seed":3,"tier":"auto"}`,
		`{"workload":{"geometry":"cylinder","scale":2},"systems":["CSP-1"],"ranks":[4],"model":"direct","tier":"tier2"}`,
	} {
		f.Add([]byte(seed))
	}
	srv, err := serve.New(serve.Config{Samples: 1, DefaultSeed: 7, CacheEntries: 8})
	if err != nil {
		f.Fatal(err)
	}
	rt := &Router{cfg: Config{DefaultSeed: 7}}

	post := func(t *testing.T, body []byte) (int, serve.PredictResponse) {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body)))
		var resp serve.PredictResponse
		if rec.Code == http.StatusOK {
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("undecodable 200 body: %v", err)
			}
		}
		return rec.Code, resp
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		// Decode as the replica does, to pick the bodies worth serving.
		var req serve.PredictRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&req) != nil || len(req.Systems) != 1 {
			return
		}
		// Keep each calibration small: lattice size grows with scale and
		// direct-model decompositions with ranks.
		if req.Workload.Scale > 6 || len(req.Ranks) > 4 {
			return
		}
		for _, k := range req.Ranks {
			if k > 64 {
				return
			}
		}
		if code, _ := post(t, body); code != http.StatusOK {
			return
		}
		canonical, err := json.Marshal(serve.PredictRequest{
			Workload: req.Workload,
			Systems:  req.Systems,
			Ranks:    []int{1},
			Seed:     req.Seed,
			Tier:     req.Tier,
		})
		if err != nil {
			t.Fatal(err)
		}
		code, resp := post(t, canonical)
		if code != http.StatusOK || resp.CacheHits != 1 {
			t.Fatalf("canonical body %s: status %d, %+v; want a cache hit on the fuzzed body's entry", canonical, code, resp)
		}
		if got, want := rt.shardKey(body), rt.shardKey(canonical); got != want {
			t.Fatalf("router keys %q, but the replica caches it with %s, keyed %q", got, canonical, want)
		}
	})
}

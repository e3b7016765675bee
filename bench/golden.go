package main

import (
	"bytes"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// Goldens were recorded from the repository at the commit that added the
// benchmark (run with -record-goldens). They pin what the program
// answers, so a change that alters any answer fails the run.
//
//go:embed goldens/*.json
var goldenFS embed.FS

// warmGolden maps every serve-warm body to the SHA-256 of its warm
// (cache-hit) response body.
type warmGolden map[string]string

// coldGoldenEntry is one recorded calibrate-cold exchange.
type coldGoldenEntry struct {
	Path     string          `json:"path"`
	Body     json.RawMessage `json:"body"`
	Response json.RawMessage `json:"response"`
}

// simGolden pins the serial HARVEY state after Steps steps on the
// simulate domain.
type simGolden struct {
	Steps    int     `json:"steps"`
	Mass     float64 `json:"mass"`
	Checksum float64 `json:"checksum"`
}

// Tolerances of the numeric gates.
const (
	coldRelTol = 1e-9  // calibrate-cold responses vs goldens
	simRelTol  = 1e-9  // serial mass and checksum vs goldens
	parAbsTol  = 1e-12 // par.Runner state vs serial state, per value
)

func loadGolden(name string, v any) error {
	b, err := goldenFS.ReadFile("goldens/" + name)
	if err != nil {
		return fmt.Errorf("golden %s: %w", name, err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("golden %s: %w", name, err)
	}
	return nil
}

func hashHex(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// checkHash compares a response with its recorded digest: any byte of
// difference fails.
func (g warmGolden) checkHash(reqBody, resp []byte) error {
	want, ok := g[string(reqBody)]
	if !ok {
		return fmt.Errorf("no golden for body %s", reqBody)
	}
	if got := hashHex(resp); got != want {
		return fmt.Errorf("response to %s differs from golden (sha256 %s, want %s)", reqBody, got[:12], want[:12])
	}
	return nil
}

// compareJSON checks got against want structurally: same keys, array
// lengths, strings and booleans; numbers equal within relTol relative
// (absolute below 1e-300).
func compareJSON(want, got []byte, relTol float64) error {
	var w, g any
	if err := json.Unmarshal(want, &w); err != nil {
		return fmt.Errorf("golden: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(got))
	if err := dec.Decode(&g); err != nil {
		return fmt.Errorf("response: %w", err)
	}
	return compareValue("$", w, g, relTol)
}

func compareValue(path string, w, g any, relTol float64) error {
	switch wv := w.(type) {
	case map[string]any:
		gv, ok := g.(map[string]any)
		if !ok {
			return fmt.Errorf("%s: want object, got %T", path, g)
		}
		if len(gv) != len(wv) {
			return fmt.Errorf("%s: want keys %v, got %v", path, keys(wv), keys(gv))
		}
		for _, k := range keys(wv) {
			gk, ok := gv[k]
			if !ok {
				return fmt.Errorf("%s: missing key %q", path, k)
			}
			if err := compareValue(path+"."+k, wv[k], gk, relTol); err != nil {
				return err
			}
		}
		return nil
	case []any:
		gv, ok := g.([]any)
		if !ok || len(gv) != len(wv) {
			return fmt.Errorf("%s: want array of %d, got %v", path, len(wv), g)
		}
		for i := range wv {
			if err := compareValue(fmt.Sprintf("%s[%d]", path, i), wv[i], gv[i], relTol); err != nil {
				return err
			}
		}
		return nil
	case float64:
		gv, ok := g.(float64)
		if !ok {
			return fmt.Errorf("%s: want number, got %T", path, g)
		}
		if !within(gv, wv, relTol) {
			return fmt.Errorf("%s: got %v, want %v (rel tol %g)", path, gv, wv, relTol)
		}
		return nil
	}
	if w != g {
		return fmt.Errorf("%s: got %v, want %v", path, g, w)
	}
	return nil
}

// within reports |got-want| <= relTol*|want|, with an absolute floor for
// values at zero.
func within(got, want, relTol float64) bool {
	return math.Abs(got-want) <= relTol*math.Max(math.Abs(want), 1e-300)
}

func keys(m map[string]any) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

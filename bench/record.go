package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
)

// recordGoldens writes the three golden files into dir from the program
// as it is now. Run it only when an intended change of the program's
// answers is being accepted:
//
//	go -C bench run . -record-goldens goldens
func recordGoldens(dir string) error {
	systems := catalogSystems()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}

	// serve-warm: one combo at a time, so its two passes run back to back
	// and the second sees only warm entries.
	t, err := newWarmTopology(1, 0, false)
	if err != nil {
		return err
	}
	warm := warmGolden{}
	res := newResult(false)
	for _, g := range warmGeometries {
		for _, s := range warmSeeds {
			for _, tier := range warmTiers {
				var w requestSet
				bs := warmBodies(warmCombo{g, s, tier}, systems)
				for k := range bs {
					w.bodies = append(w.bodies, bs[k]...)
				}
				refs, err := t.warm(w, 1, nil, res)
				if err != nil {
					t.close()
					return err
				}
				for i, b := range w.bodies {
					warm[string(b.json)] = hashHex(refs[i])
				}
			}
		}
	}
	t.close()
	if err := writeJSON(filepath.Join(dir, "serve-warm.json"), warm); err != nil {
		return err
	}

	// calibrate-cold: the golden bodies on a fresh replica, in order.
	r, err := newColdReplica(1, 0, false, systems)
	if err != nil {
		return err
	}
	var cold []coldGoldenEntry
	var buf bytes.Buffer
	for _, b := range coldGoldenBodies(systems) {
		code, _, err := r.client.post(r.target.url+b.path(), b.json, -1, &buf)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("status %d: %s", code, bytes.TrimSpace(buf.Bytes()))
		}
		if err != nil {
			r.close()
			return fmt.Errorf("recording %s: %w", b.json, err)
		}
		cold = append(cold, coldGoldenEntry{Path: b.path(), Body: b.json, Response: bytes.TrimSpace(append([]byte(nil), buf.Bytes()...))})
	}
	r.close()
	if err := writeJSON(filepath.Join(dir, "calibrate-cold.json"), cold); err != nil {
		return err
	}

	// simulate: the serial state after simGoldenSteps steps.
	ks, err := newKernelSet(1)
	if err != nil {
		return err
	}
	ks.serial.Run(simGoldenSteps)
	sim := simGolden{Steps: ks.serial.Steps(), Mass: ks.serial.TotalMass(), Checksum: stateChecksum(ks.serial.Cell, ks.serial.N())}
	return writeJSON(filepath.Join(dir, "simulate.json"), sim)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

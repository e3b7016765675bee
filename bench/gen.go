package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/machine"
	"repro/internal/serve"
)

// Request kinds of the planning workloads.
const (
	kindSingle = iota // single-system generalized /v1/predict
	kindBatch         // whole-catalog /v1/predict, 20 predictions
	kindDirect        // single-system direct-model /v1/predict
	kindPlan          // whole-catalog /v1/plan
	numKinds
)

var kindPaths = [numKinds]string{"/v1/predict", "/v1/predict", "/v1/predict", "/v1/plan"}

// body is one generated request: its endpoint kind and JSON bytes.
type body struct {
	kind int
	json []byte
}

func (b body) path() string { return kindPaths[b.kind] }

// catalogSystems returns the serve catalog's system names in order.
func catalogSystems() []string {
	var out []string
	for _, s := range machine.Catalog() {
		out = append(out, s.Abbrev)
	}
	return out
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("marshal %T: %v", v, err)) // only plain structs reach here
	}
	return b
}

// --- serve-warm --------------------------------------------------------

// The serve-warm key universe: every (geometry, calibration seed, tier)
// combination below, at warmScale. Goldens cover the whole universe, so
// any run seed draws only bodies with a recorded response.
var (
	warmGeometries = []string{"cylinder", "aorta", "stenosis"}
	warmSeeds      = []int64{11, 12, 13}
	warmTiers      = []string{"", "tier0", "tier2", "auto"}
	warmObjectives = []string{"min-cost", "max-value"}
)

const (
	warmScale     = 4
	warmRanks     = 64
	warmPlanSteps = 20000
)

// The serve-warm request mix: the requests of one block, drawn in a
// seeded order. The counts are what the repository's own callers of the
// planning model send in one invocation each (bench/README.md, "Request
// mix", cites the code):
const (
	// fleet -example placement predicts every job on every pool system
	// it fits (11 jobs x 3 systems, campaign/fleet.go); campaign
	// -example predicts each of its 4 jobs on its system
	// (campaign/campaign.go). Both use the direct model.
	warmDirectMix = 33 + 4
	// campaign -example recommends a system for its 3 unpinned jobs, and
	// csdash assesses the catalog once per run: a plan each.
	warmPlanMix = 3 + 1
	// Unverified assumptions, not derived from a caller: one
	// whole-catalog predict (the README's batch example) per block, and
	// as many single-system predicts on serve's default generalized model
	// (the only kind cmd/loadgen sends) as direct ones.
	warmBatchMix  = 1
	warmSingleMix = warmDirectMix
	warmBlock     = warmSingleMix + warmBatchMix + warmDirectMix + warmPlanMix
)

var (
	warmBatchRankList  = []int{8, 32, 128, 512}
	warmDirectRankList = []int{4, 16}
)

// warmCombo is one calibration identity of the serve-warm keyset.
type warmCombo struct {
	geometry string
	seed     int64
	tier     string
}

// warmBodies returns every distinct body of one combo, grouped by kind.
func warmBodies(c warmCombo, systems []string) [numKinds][]body {
	var out [numKinds][]body
	wl := serve.WorkloadSpec{Geometry: c.geometry, Scale: warmScale}
	for _, sys := range systems {
		out[kindSingle] = append(out[kindSingle], body{kindSingle, mustJSON(serve.PredictRequest{
			Workload: wl, Systems: []string{sys}, Ranks: []int{warmRanks}, Seed: c.seed, Tier: c.tier,
		})})
		out[kindDirect] = append(out[kindDirect], body{kindDirect, mustJSON(serve.PredictRequest{
			Workload: wl, Systems: []string{sys}, Ranks: warmDirectRankList, Model: "direct", Seed: c.seed, Tier: c.tier,
		})})
	}
	out[kindBatch] = []body{{kindBatch, mustJSON(serve.PredictRequest{
		Workload: wl, Ranks: warmBatchRankList, Seed: c.seed, Tier: c.tier,
	})}}
	for _, obj := range warmObjectives {
		out[kindPlan] = append(out[kindPlan], body{kindPlan, mustJSON(serve.PlanRequest{
			Workload: wl, Ranks: warmRanks, Steps: warmPlanSteps, Objective: obj, Seed: c.seed, Tier: c.tier,
		})})
	}
	return out
}

// warmUniverse lists every body any serve-warm run can send.
func warmUniverse(systems []string) []body {
	var out []body
	for _, g := range warmGeometries {
		for _, s := range warmSeeds {
			for _, t := range warmTiers {
				bs := warmBodies(warmCombo{g, s, t}, systems)
				for k := range bs {
					out = append(out, bs[k]...)
				}
			}
		}
	}
	return out
}

// requestSet is a run's input: its distinct bodies and the request
// sequence as indices into them. serve-warm warms every body during
// set-up.
type requestSet struct {
	bodies []body
	seq    []int
}

// genWarm draws the run's keyset and request sequence from the seed. The
// keyset takes every (geometry, tier) pair once with a seeded calibration
// seed, so each run warms the same amount of calibration work; the
// sequence is n requests in shuffled blocks of the request mix.
func genWarm(seed int64, n int, systems []string) requestSet {
	rng := rand.New(rand.NewSource(seed))
	var w requestSet
	var byKind [numKinds][]int
	for _, g := range warmGeometries {
		for _, t := range warmTiers {
			c := warmCombo{g, warmSeeds[rng.Intn(len(warmSeeds))], t}
			bs := warmBodies(c, systems)
			for k := range bs {
				for _, b := range bs[k] {
					byKind[k] = append(byKind[k], len(w.bodies))
					w.bodies = append(w.bodies, b)
				}
			}
		}
	}
	block := mixBlock([numKinds]int{kindSingle: warmSingleMix, kindBatch: warmBatchMix, kindDirect: warmDirectMix, kindPlan: warmPlanMix})
	w.seq = make([]int, 0, n)
	for len(w.seq) < n {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, k := range block {
			if len(w.seq) == n {
				break
			}
			pool := byKind[k]
			w.seq = append(w.seq, pool[rng.Intn(len(pool))])
		}
	}
	return w
}

// --- calibrate-cold ----------------------------------------------------

var (
	coldGeometries     = []string{"cylinder", "aorta", "cerebral", "stenosis", "bifurcation"}
	coldDirectRankSets = [][]int{{4, 16}, {8, 32, 64}}
)

const (
	coldScale       = 6
	coldRanks       = 64
	coldPlanSteps   = 20000
	coldGoldenSeed0 = 900001
	coldSeedBase    = 1000000
)

// coldBody builds one cold request. Every calibration seed the benchmark
// sends is used once, so each request pays its calibration build(s).
func coldBody(kind int, geometry, system string, ranks []int, calibSeed int64) body {
	wl := serve.WorkloadSpec{Geometry: geometry, Scale: coldScale}
	switch kind {
	case kindPlan:
		return body{kindPlan, mustJSON(serve.PlanRequest{
			Workload: wl, Ranks: coldRanks, Steps: coldPlanSteps, Seed: calibSeed,
		})}
	case kindDirect:
		return body{kindDirect, mustJSON(serve.PredictRequest{
			Workload: wl, Systems: []string{system}, Ranks: ranks, Model: "direct", Seed: calibSeed,
		})}
	}
	return body{kindSingle, mustJSON(serve.PredictRequest{
		Workload: wl, Systems: []string{system}, Ranks: []int{coldRanks}, Seed: calibSeed,
	})}
}

// coldGoldenBodies are the first requests of every calibrate-cold run:
// fixed bodies with reserved seeds, whose responses are compared with
// recorded goldens.
func coldGoldenBodies(systems []string) []body {
	s := int64(coldGoldenSeed0)
	return []body{
		coldBody(kindSingle, "cylinder", systems[0], nil, s),
		coldBody(kindDirect, "aorta", systems[1%len(systems)], coldDirectRankSets[0], s+1),
		coldBody(kindPlan, "stenosis", "", nil, s+2),
		coldBody(kindSingle, "cerebral", systems[2%len(systems)], nil, s+3),
		coldBody(kindDirect, "bifurcation", systems[3%len(systems)], coldDirectRankSets[1], s+4),
	}
}

// The calibrate-cold request mix: one deck, drawn in a seeded order. One
// invocation each of the repository's callers, meeting new anatomies,
// sends 34 direct predicts and 4 plans that pay calibration builds
// (bench/README.md, "Request mix"). A deck holds half of that, in the
// same proportions, so the calibration LRU sized to one deck holds
// under 400 MB.
const (
	// fleet -example placement: 11 jobs x 3 pool systems, each system a
	// calibration key of its own; campaign -example: its pinned job (its
	// 3 unpinned jobs predict on a system their plan has just built).
	coldDirectMix = (33 + 1) / 2
	// campaign -example: 3 unpinned jobs' recommendations; csdash: one.
	coldPlanMix = (3 + 1) / 2
	// Unverified assumption, as in serve-warm: as many generalized
	// single-system predicts as direct ones.
	coldSingleMix = coldDirectMix
)

// coldDeck is the kinds of one deck, in kind order.
var coldDeck = mixBlock([numKinds]int{kindSingle: coldSingleMix, kindDirect: coldDirectMix, kindPlan: coldPlanMix})

// mixBlock lists count[k] requests of each kind k, in kind order.
func mixBlock(count [numKinds]int) []int {
	var out []int
	for k, c := range count {
		for i := 0; i < c; i++ {
			out = append(out, k)
		}
	}
	return out
}

// genCold returns the golden bodies followed by decks whole decks of
// requests, each deck in a seeded order. Every deck has the same kinds,
// and each kind takes the campaign geometries (and direct predicts the
// rank sets) in turn over the run, so what the calibration cache holds
// after any deck depends only on the deck's index, not on the seed: the
// entries' sizes differ by geometry and rank set. The seed picks the
// order within each deck and each request's system; every calibration
// seed is used once.
func genCold(seed int64, decks int, systems []string) []body {
	rng := rand.New(rand.NewSource(seed))
	out := coldGoldenBodies(systems)
	base := int64(coldSeedBase) + int64(uint64(seed)%1000000)*100000
	var turn [numKinds]int
	deck := append([]int(nil), coldDeck...)
	for d := 0; d < decks; d++ {
		rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
		for _, kind := range deck {
			t := turn[kind]
			turn[kind]++
			g := coldGeometries[t%len(coldGeometries)]
			ranks := coldDirectRankSets[t%len(coldDirectRankSets)]
			sys := systems[rng.Intn(len(systems))]
			out = append(out, coldBody(kind, g, sys, ranks, base+int64(len(out))))
		}
	}
	return out
}

package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/campaign"
	"repro/internal/decomp"
	"repro/internal/lbm"
	"repro/internal/mbench"
	"repro/internal/par"
)

// simulate: the HARVEY-style serial kernel, the same domain under
// par.Runner, and the proxy SOA-AA-unrolled kernel, each window preceded
// by a STREAM Copy window at the kernel's thread count.
const (
	simGeometry = "aorta"
	simScale    = 12
	proxyNX     = 128
	proxyRadius = 16

	serialStepsPerWindow = 4
	parStepsPerWindow    = 4
	proxyStepsPerWindow  = 8

	streamN       = 1 << 21 // float64 elements per STREAM array
	streamIters   = 4       // best of, per window (STREAM's convention)
	streamThreads = 1       // see below

	// simCyclesPerSecond sets the fixed work: seconds x rate cycles of
	// three window pairs, about --seconds on the reference 2-core host.
	simCyclesPerSecond = 4
	// probeCycles is the short kernel pass after a planning workload's
	// timed window, which supplies its kernel ratio metrics.
	probeCycles = 40
	// simGoldenSteps is the serial step count at which the state is
	// compared with the golden; it needs ceil(20/4) = 5 cycles.
	simGoldenSteps = 20
	// proxyMassTol bounds the proxy's relative mass drift (forced flow
	// conserves mass to accumulated round-off).
	proxyMassTol = 1e-6
)

var proxyConfig = lbm.KernelConfig{Layout: lbm.SOA, Pattern: lbm.AA, Unrolled: true}

// Kernel indices.
const (
	kSerial = iota
	kPar
	kProxy
	numKernels
)

var kernelNames = [numKernels]string{"harvey", "harvey_par", "proxy"}

// kernelSet is the simulate system under test.
type kernelSet struct {
	threads    int
	serial     *lbm.Sparse
	parSolver  *lbm.Sparse
	part       *decomp.Partition
	runner     *par.Runner
	proxy      *lbm.Proxy
	proxyMass0 float64
}

func newKernelSet(threads int) (*kernelSet, error) {
	dom, err := campaign.BuildGeometry(simGeometry, simScale)
	if err != nil {
		return nil, err
	}
	ks := &kernelSet{threads: threads}
	if ks.serial, err = lbm.NewSparse(dom, solverParams); err != nil {
		return nil, err
	}
	if ks.parSolver, err = lbm.NewSparse(dom, solverParams); err != nil {
		return nil, err
	}
	if ks.part, err = decomp.RCB(ks.parSolver, threads, lbm.HarveyAccess()); err != nil {
		return nil, err
	}
	if ks.runner, err = par.NewRunner(ks.parSolver, ks.part); err != nil {
		return nil, err
	}
	if ks.proxy, err = lbm.NewProxy(proxyConfig, proxyNX, proxyRadius, lbm.Params{Tau: 0.9, Force: [3]float64{1e-5, 0, 0}}); err != nil {
		return nil, err
	}
	ks.proxy.SetThreads(threads)
	ks.proxyMass0 = ks.proxy.TotalMass()
	return ks, nil
}

// newWarmKernelSet builds a kernel set and runs one untimed STREAM window
// and one window of each kernel on it, so the timed windows start after
// first-use costs (thread start-up, first touches). The serial and par
// states stay at the same step, a multiple of serialStepsPerWindow.
func newWarmKernelSet(threads int) (*kernelSet, error) {
	ks, err := newKernelSet(threads)
	if err != nil {
		return nil, err
	}
	if _, err := mbench.StreamHost(mbench.Copy, streamThreads, streamN, streamIters); err != nil {
		return nil, err
	}
	for s := 0; s < serialStepsPerWindow; s++ {
		ks.serial.Step()
	}
	ks.runner.Run(serialStepsPerWindow)
	ks.proxy.Run(proxyStepsPerWindow)
	return ks, nil
}

// noteHost adds the same-run STREAM bandwidth and each kernel's working
// set (distributions and index tables) to the host record.
func (ks *kernelSet) noteHost(res *result, gbs []float64) {
	n := float64(ks.serial.N())
	res.note("host: working sets: harvey %.1f MB (par the same, split over ranks), proxy %.1f MB",
		(n*lbm.NQ*8*2+n*lbm.NQ*4)/1e6, float64(ks.proxy.Dom.Sites())*lbm.NQ*8/1e6)
	noteStream(res, gbs)
}

// noteStream adds same-run STREAM Copy bandwidth to the host record,
// measuring it when the run had no STREAM windows of its own.
func noteStream(res *result, gbs []float64) {
	for len(gbs) < 3 {
		mbps, err := mbench.StreamHost(mbench.Copy, streamThreads, streamN, streamIters)
		if err != nil {
			res.note("host: STREAM copy failed: %v", err)
			return
		}
		gbs = append(gbs, mbps/1e3)
	}
	res.note("host: STREAM copy %.2f GB/s at %d thread, arrays %.1f MB (median of %d same-run windows)",
		median(gbs), streamThreads, 3*streamN*8/1e6, len(gbs))
	res.streamNoted = true
}

// kernelRun holds the windows of one pass.
type kernelRun struct {
	stepNS []int64               // each serial step
	mflups [numKernels][]float64 // per window
	gbs    [numKernels][]float64 // STREAM before each window, GB/s
	ratio  [numKernels][]float64 // mflups / gbs per window
}

// add appends another pass's windows to kr.
func (kr *kernelRun) add(o kernelRun) {
	kr.stepNS = append(kr.stepNS, o.stepNS...)
	for k := range kr.mflups {
		kr.mflups[k] = append(kr.mflups[k], o.mflups[k]...)
		kr.gbs[k] = append(kr.gbs[k], o.gbs[k]...)
		kr.ratio[k] = append(kr.ratio[k], o.ratio[k]...)
	}
}

// allGBS returns every STREAM window of the pass.
func (kr kernelRun) allGBS() []float64 {
	var out []float64
	for _, g := range kr.gbs {
		out = append(out, g...)
	}
	return out
}

// runCycles runs cycles of (STREAM, kernel) window pairs in a seeded
// order, checking the serial state against the golden when it reaches
// simGoldenSteps. With a span log it records a span per window.
func (ks *kernelSet) runCycles(cycles int, rng *rand.Rand, golden simGolden, res *result, spans *spanLog) (kernelRun, error) {
	var kr kernelRun
	order := []int{kSerial, kPar, kProxy}
	n := float64(ks.serial.N())
	for c := 0; c < cycles; c++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, k := range order {
			var mbps float64
			var err error
			spans.timed(c+1, 0, "mbench", "StreamHost copy", func() {
				mbps, err = mbench.StreamHost(mbench.Copy, streamThreads, streamN, streamIters)
			})
			if err != nil {
				return kr, err
			}
			gbs := mbps / 1e3
			var mf float64
			switch k {
			case kSerial:
				d := spans.timed(c+1, 0, "lbm", "Sparse.Step", func() {
					for s := 0; s < serialStepsPerWindow; s++ {
						t0 := time.Now()
						ks.serial.Step()
						kr.stepNS = append(kr.stepNS, time.Since(t0).Nanoseconds())
					}
				})
				mf = n * serialStepsPerWindow / d.Seconds() / 1e6
			case kPar:
				d := spans.timed(c+1, 0, "par", "Runner.Run", func() { ks.runner.Run(parStepsPerWindow) })
				mf = n * parStepsPerWindow / d.Seconds() / 1e6
			case kProxy:
				d := spans.timed(c+1, 0, "lbm", "Proxy.Run", func() { ks.proxy.Run(proxyStepsPerWindow) })
				mf = float64(ks.proxy.FluidPoints()) * proxyStepsPerWindow / d.Seconds() / 1e6
			}
			kr.mflups[k] = append(kr.mflups[k], mf)
			kr.gbs[k] = append(kr.gbs[k], gbs)
			kr.ratio[k] = append(kr.ratio[k], mf/gbs)
			res.attempt(1)
		}
		if ks.serial.Steps() == simGoldenSteps {
			res.attempt(1)
			if err := checkSerial(ks.serial, golden); err != nil {
				res.fail("simulate golden: %v", err)
			}
		}
	}
	return kr, nil
}

// stateChecksum is a position-weighted sum of every distribution value,
// so a misplaced value changes it even when the mass does not.
func stateChecksum(cell func(si int) [lbm.NQ]float64, n int) float64 {
	var sum float64
	for si := 0; si < n; si++ {
		c := cell(si)
		for q, v := range c {
			sum += v * (1 + float64((si*lbm.NQ+q)%97)/97)
		}
	}
	return sum
}

func checkSerial(s *lbm.Sparse, g simGolden) error {
	if g.Steps != s.Steps() {
		return fmt.Errorf("golden is for step %d, state is at step %d", g.Steps, s.Steps())
	}
	mass, sum := s.TotalMass(), stateChecksum(s.Cell, s.N())
	if !within(mass, g.Mass, simRelTol) || !within(sum, g.Checksum, simRelTol) {
		return fmt.Errorf("step %d: mass %v checksum %v, want %v %v (rel tol %g)", s.Steps(), mass, sum, g.Mass, g.Checksum, simRelTol)
	}
	return nil
}

// checkFinal compares the par.Runner state with the serial state (same
// step count) and the proxy's mass with its initial mass.
func (ks *kernelSet) checkFinal(res *result) {
	res.attempt(2)
	if ks.runner.Steps() != ks.serial.Steps() {
		res.fail("par.Runner at step %d, serial at %d", ks.runner.Steps(), ks.serial.Steps())
	} else {
		var worst float64
		for si := 0; si < ks.serial.N(); si++ {
			a, b := ks.serial.Cell(si), ks.runner.Cell(si)
			for q := range a {
				worst = math.Max(worst, math.Abs(a[q]-b[q]))
			}
		}
		if worst > parAbsTol {
			res.fail("par.Runner state differs from serial by up to %g (tol %g)", worst, parAbsTol)
		}
	}
	if m := ks.proxy.TotalMass(); !within(m, ks.proxyMass0, proxyMassTol) {
		res.fail("proxy mass drifted from %v to %v (rel tol %g)", ks.proxyMass0, m, proxyMassTol)
	}
}

// setRatios sets the three kernel-ratio end-to-end metrics.
func setRatios(res *result, kr kernelRun) {
	for k := 0; k < numKernels; k++ {
		name := kernelNames[k] + "_mflups_per_gbs"
		res.metrics[name] = median(kr.ratio[k])
		res.samples[name] = len(kr.ratio[k])
	}
}

// simPartCycles is the cycles of each of a simulate run's parts: the
// fixed work split over setupRepeats parts, and at least the cycles the
// golden check needs.
func simPartCycles(seconds int) int {
	perPart := (seconds*simCyclesPerSecond + setupRepeats - 1) / setupRepeats
	return max(perPart, (simGoldenSteps+serialStepsPerWindow-1)/serialStepsPerWindow)
}

// runSimulate builds the kernel set setupRepeats times; after each build
// it runs one part of the cycles on it, checking the golden state and
// the final par and proxy states. Windows pool over the parts.
func runSimulate(cfg runConfig, res *result) error {
	var golden simGolden
	if err := loadGolden("simulate.json", &golden); err != nil {
		return err
	}
	cycles := simPartCycles(cfg.seconds)
	rng := rand.New(rand.NewSource(cfg.seed))
	var kr, last kernelRun
	var heaps []float64
	var rt runtimeSample
	runPart := func(ks *kernelSet, r int) error {
		runtime.GC() // start every part from the same collector state
		a := readRuntime()
		var err error
		if last, err = ks.runCycles(cycles, rng, golden, res, nil); err != nil {
			return err
		}
		rt = rt.plus(readRuntime().minus(a))
		kr.add(last)
		heaps = append(heaps, heapLiveMB())
		ks.checkFinal(res)
		return nil
	}
	ks, err := timeSetups(res, setupRepeats, func() (*kernelSet, error) { return newWarmKernelSet(cfg.clients) }, runPart, func(*kernelSet) {})
	if err != nil {
		return err
	}
	res.note("simulate: %s@%d (%d sites), par.Runner at %d ranks, proxy %v nx=%d r=%d (%d fluid points) at %d threads; %d parts of %d cycles, each on a fresh set-up, seeded window order",
		simGeometry, simScale, ks.serial.N(), cfg.clients, proxyConfig, proxyNX, proxyRadius, ks.proxy.FluidPoints(), cfg.clients, setupRepeats, cycles)
	setHeap(res, heaps)
	// An operation of this workload is one serial HARVEY step.
	setLatency(res, kr.stepNS, sequentialRate(kr.stepNS))
	setRatios(res, kr)
	ks.noteHost(res, kr.allGBS())
	if !cfg.traced {
		return nil
	}

	// Traced run: a traced part on the last set-up supplies the layer
	// split; the untraced last part is its overhead baseline.
	m := res.metrics
	runtimePerOp(m, rt, len(kr.stepNS))
	traced, err := ks.runCycles(cycles, rng, golden, res, res.spans)
	if err != nil {
		return err
	}
	ks.checkFinal(res)
	setOverhead(m, last.stepNS, traced.stepNS, sequentialRate(last.stepNS), sequentialRate(traced.stepNS))
	kernelLayers(res, ks, traced)
	return nil
}

// kernelLayers sets the lbm, par and mbench layer metrics from a pass.
func kernelLayers(res *result, ks *kernelSet, kr kernelRun) {
	m := res.metrics
	m["lbm.harvey_mflups"] = median(kr.mflups[kSerial])
	m["lbm.proxy_mflups"] = median(kr.mflups[kProxy])
	m["par.mflups"] = median(kr.mflups[kPar])
	bpf := ks.serial.BytesSerial(lbm.HarveyAccess()) / float64(ks.serial.N())
	m["lbm.harvey_bytes_per_flup"] = bpf
	m["mbench.stream_copy_gbs"] = median(kr.allGBS())
	m["lbm.harvey_roofline_pct"] = 100 * m["lbm.harvey_mflups"] * 1e6 * bpf / (m["mbench.stream_copy_gbs"] * 1e9)
	var comp, comm float64
	for _, st := range ks.runner.Stats() {
		comp += st.ComputeS
		comm += st.CommS
	}
	if comp+comm > 0 {
		m["par.comm_share_pct"] = 100 * comm / (comp + comm)
	}
	m["par.imbalance"] = ks.part.Imbalance()
	for _, k := range []string{"lbm.harvey_mflups", "lbm.proxy_mflups", "par.mflups", "mbench.stream_copy_gbs"} {
		res.samples[k] = len(kr.mflups[kSerial])
	}
	res.note("lbm.harvey_bytes_per_flup is computed from lbm.HarveyAccess and BytesSerial, not measured; lbm.harvey_roofline_pct divides computed bytes/s by same-run 1-thread STREAM Copy")
}

// kernelProbe gives a planning workload its kernel-ratio metrics from a
// short kernel pass after its timed window and heap reading, once the
// caller has released its system under test.
func kernelProbe(cfg runConfig, res *result) error {
	runtime.GC()
	var golden simGolden
	if err := loadGolden("simulate.json", &golden); err != nil {
		return err
	}
	ks, err := newWarmKernelSet(cfg.clients)
	if err != nil {
		return err
	}
	kr, err := ks.runCycles(probeCycles, rand.New(rand.NewSource(cfg.seed)), golden, res, nil)
	if err != nil {
		return err
	}
	ks.checkFinal(res)
	setRatios(res, kr)
	res.note("kernel ratios from a %d-cycle kernel probe after the timed window", probeCycles)
	ks.noteHost(res, kr.allGBS())
	return nil
}

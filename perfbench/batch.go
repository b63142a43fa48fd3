package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"adelie/internal/obs"
)

// runSpec is one registry run of a batch pass, at default scale.
type runSpec struct {
	exp    string
	params map[string]int64
}

// ddBatch regenerates Fig. 5b (20 configurations x 1600 dd reads, each
// on a cold-booted machine) in a closed loop: the interpreter-bound path
// (cpu, mm), with almost no engine, bus, device or service work.
func ddBatch(cfg config) (*outcome, error) {
	return batch(cfg, []runSpec{{"fig5b", map[string]int64{"seed": expSeed(cfg.rng)}}})
}

// ioBatch regenerates Fig. 7 (OLTP over E1000E + NVMe), Fig. 8 (Apache,
// five modules re-randomized) and the server scenario (4-queue RSS NIC,
// NVMe completion IRQs, 1 ms re-randomization) in a closed loop: the
// multi-vCPU engine, NIC DMA, interrupt dispatch and re-randomization.
func ioBatch(cfg config) (*outcome, error) {
	return batch(cfg, []runSpec{
		{"fig7", map[string]int64{"seed": expSeed(cfg.rng)}},
		{"fig8", map[string]int64{"seed": expSeed(cfg.rng)}},
		{"server", map[string]int64{"seed": expSeed(cfg.rng)}},
	})
}

// expSeed draws an experiment's machine boot seed from the workload seed.
func expSeed(rng *rand.Rand) int64 { return 1 + rng.Int64N(1<<31-1) }

// batchRun is one closed-loop client: it runs the pass's experiments in
// order, over and over, and checks each table against the first pass's.
type batchRun struct {
	specs []runSpec
	ref   [][]byte // reference table JSON per spec, from the first pass
	o     *outcome
}

// passResult is one pass: its wall time, simulated ops and per-run
// latencies in ms (keyed by experiment).
type passResult struct {
	wall  time.Duration
	ops   uint64
	runMs map[string]float64
}

func (b *batchRun) pass(tr *tracer) passResult {
	ops := obs.Default.Counter("adelie_engine_ops_total")
	start, ops0 := time.Now(), ops.Value()
	pid := -1
	if tr != nil {
		pid = tr.span(-1, "pass", start, start)
	}
	p := passResult{runMs: map[string]float64{}}
	for i, s := range b.specs {
		t0 := time.Now()
		tab, err := runExperiment(s.exp, false, s.params, tr != nil)
		t1 := time.Now()
		if tr != nil {
			tr.span(pid, "run:"+s.exp, t0, t1)
		}
		p.runMs[s.exp] = msSince(t0, t1)
		b.o.attempted++
		switch {
		case err != nil:
			b.fail(err.Error())
		case b.ref[i] == nil:
			b.ref[i] = tab
		case !bytes.Equal(tab, b.ref[i]):
			b.fail(fmt.Sprintf("%s: table differs from the first pass's", s.exp))
		}
	}
	p.wall, p.ops = time.Since(start), ops.Value()-ops0
	if tr != nil {
		tr.spans[pid].End = msSince(tr.t0, start.Add(p.wall))
	}
	return p
}

func (b *batchRun) fail(msg string) {
	b.o.failed++
	if _, ok := b.o.detail["first_failure"]; !ok {
		b.o.detail["first_failure"] = msg
	}
}

// window runs whole passes until d has elapsed (at least one), after a
// GC so the previous phase's garbage is not charged to it.
func (b *batchRun) window(d time.Duration) []passResult {
	runtime.GC()
	var out []passResult
	for end := time.Now().Add(d); len(out) == 0 || time.Now().Before(end); {
		out = append(out, b.pass(nil))
	}
	return out
}

// On the batches req_ms_p99 is the median of the slowest run in each of
// tailBlocks consecutive blocks of the window's runs: a stall that slows
// one run moves one block's maximum, not the median.
const tailBlocks = 5

func batch(cfg config, specs []runSpec) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}, detail: map[string]any{}}
	b := &batchRun{specs: specs, ref: make([][]byte, len(specs)), o: o}
	var params []string
	for _, s := range specs {
		params = append(params, fmt.Sprintf("%s seed=%d", s.exp, s.params["seed"]))
	}
	o.detail["runs"] = params

	// Set-up is one untimed full pass; it is repeated and the median
	// reported, and the first pass fixes the reference tables.
	reps := 3
	if cfg.traced {
		reps = 1
	}
	var setups []float64
	for i := 0; i < reps; i++ {
		setups = append(setups, b.pass(nil).wall.Seconds())
	}
	o.metrics["setup_s"] = median(setups)
	o.detail["setup_s"] = setups

	if !cfg.traced {
		passes := b.window(cfg.window)
		var rates, runRates, lat, passS []float64
		for _, p := range passes {
			rates = append(rates, float64(p.ops)/p.wall.Seconds())
			runRates = append(runRates, float64(len(specs))/p.wall.Seconds())
			passS = append(passS, p.wall.Seconds())
			for _, s := range specs {
				lat = append(lat, p.runMs[s.exp])
			}
		}
		o.metrics["sim_ops_per_s"] = median(rates)
		o.metrics["req_ms_p50"] = median(lat)
		o.metrics["req_ms_p99"] = medianOfParts(lat, tailBlocks, 100)
		o.metrics["max_rps"] = percentile(runRates, 75) // the faster passes' rate; one slow pass does not move it
		o.detail["pass_s"] = passS
		return o, nil
	}

	// Traced: passes alternate untraced and traced over the window, so
	// host drift and warm-up fall on both sides of the overhead.
	tr := newTracer(fmt.Sprintf("%s-seed%d", specs[0].exp, cfg.seed))
	var plain, traced []passResult
	for end := time.Now().Add(cfg.window); len(traced) == 0 || time.Now().Before(end); {
		runtime.GC()
		if len(plain) == len(traced) {
			plain = append(plain, b.pass(nil))
			continue
		}
		if err := tr.resume(); err != nil {
			return nil, err
		}
		traced = append(traced, b.pass(tr))
		if err := tr.pause(); err != nil {
			return nil, err
		}
	}
	delta, fold, err := tr.finish()
	if err != nil {
		return nil, err
	}
	m := o.metrics
	var busy time.Duration
	for _, p := range traced {
		busy += p.wall
	}
	if err := layerMetrics(m, delta, fold, len(traced)*len(specs), float64(busy.Nanoseconds()), cfg.seed); err != nil {
		return nil, err
	}
	runMs := map[string]float64{}
	for _, s := range specs {
		var ms []float64
		for _, p := range traced {
			ms = append(ms, p.runMs[s.exp])
		}
		runMs[s.exp] = median(ms)
	}
	o.detail["workload_run_ms_p50"] = runMs
	m["bench.trace_overhead_pct"] = 100 * (medianNsPerOp(traced)/medianNsPerOp(plain) - 1)
	o.detail["passes_untraced"], o.detail["passes_traced"] = len(plain), len(traced)
	o.detail["fold_pct"] = fold
	return o, nil
}

// medianNsPerOp is the median over passes of host ns per simulated op.
func medianNsPerOp(ps []passResult) float64 {
	var v []float64
	for _, p := range ps {
		v = append(v, float64(p.wall.Nanoseconds())/float64(p.ops))
	}
	return median(v)
}

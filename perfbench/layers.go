package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"adelie/internal/drivers"
	"adelie/internal/kernel"
	"adelie/internal/obs"
	"adelie/internal/sim"
)

// perLayer lists every metric a traced run reports, with its unit, in
// the order BENCHMARK.json declares them. Every timing here is measured
// on every workload; a count or share for a layer a workload does not
// exercise is 0 there (that layer "should not move" on it). Timings
// only one kind of workload has (per-experiment run times, the service
// latency split, generator lateness) go to the record line instead.
var perLayer = []struct{ name, unit string }{
	{"cpu.chain_pct", "%"}, {"cpu.ichain_pct", "%"}, {"cpu.blocks_per_op", "count/op"}, {"cpu.self_pct", "%"},
	{"mm.self_pct", "%"},
	{"engine.host_ns_per_op", "ns"}, {"engine.host_ns_per_kcycle", "ns"}, {"engine.irqs_per_op", "count/op"},
	{"engine.irq_cycles_per_op", "cycles/op"}, {"engine.self_pct", "%"},
	{"bus.irqs_raised", "count/run"}, {"bus.irqs_delivered", "count/run"}, {"bus.irqs_spurious", "count/run"}, {"bus.self_pct", "%"},
	{"devices.self_pct", "%"}, {"runtime.allocs_per_op", "count/op"},
	{"rerand.epochs", "count/run"}, {"rerand.pages_remapped", "count/run"}, {"rerand.self_pct", "%"},
	{"kernel.modules_loaded", "count/run"}, {"kernel.self_pct", "%"},
	{"sim.boot_ms", "ms"}, {"sim.snapshot_ms", "ms"}, {"sim.fork_us", "us"}, {"sim.release_us", "us"},
	{"sim.forks", "count/run"}, {"sim.cold_boots", "count"}, {"sim.templates", "count"}, {"sim.self_pct", "%"},
	{"workload.self_pct", "%"},
	{"service.errors", "count"}, {"service.queue_full", "count"}, {"service.self_pct", "%"},
	{"obs.self_pct", "%"}, {"runtime.gc_pct", "%"}, {"bench.trace_overhead_pct", "%"},
}

// foldedLayers are the packages whose CPU-profile self time becomes a
// <layer>.self_pct metric.
var foldedLayers = []string{"cpu", "mm", "engine", "bus", "devices", "kernel", "rerand", "sim", "workload", "service", "obs"}

// counterNames are the program's public obs.Default counters the
// per-layer metrics are deltas of.
var counterNames = []string{
	"adelie_engine_ops_total", "adelie_engine_busy_cycles_total",
	"adelie_engine_blocks_total", "adelie_engine_chained_blocks_total", "adelie_engine_indirect_chained_total",
	"adelie_engine_irqs_total", "adelie_engine_irq_cycles_total",
	"adelie_bus_irqs_raised_total", "adelie_bus_irqs_delivered_total", "adelie_bus_irqs_spurious_total",
	"adelie_rerand_epochs_total", "adelie_rerand_pages_remapped_total",
	"adelie_kernel_modules_loaded_total",
}

// counters is a snapshot of the obs counters plus the Go heap's
// cumulative allocation count ("mallocs").
type counters map[string]uint64

func readCounters() counters {
	c := counters{}
	for _, n := range counterNames {
		c[n] = obs.Default.Counter(n).Value()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c["mallocs"] = ms.Mallocs
	return c
}

func (c counters) since(base counters) counters {
	d := counters{}
	for k, v := range c {
		d[k] = v - base[k]
	}
	return d
}

func (c counters) ops() uint64 { return c["adelie_engine_ops_total"] }

// span is one timed interval the benchmark recorded around its own call
// into a layer. Spans of one request or pass share ID; Parent names the
// span that caused this one (-1 for a root).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

// tracer instruments the traced segments of a run: a CPU profile and
// the counter deltas over each segment, accumulated, plus the span log
// of the whole run. Segments alternate with untraced ones, so host drift
// within a run does not bias the tracing overhead.
type tracer struct {
	tag     string
	t0      time.Time
	base    counters
	delta   counters
	prof    bytes.Buffer
	samples map[string]float64 // CPU-profile samples folded by bucket
	segs    int
	spans   []span
}

func newTracer(tag string) *tracer {
	return &tracer{tag: tag, t0: time.Now(), delta: counters{}, samples: map[string]float64{}}
}

// resume starts a traced segment.
func (t *tracer) resume() error {
	t.prof.Reset()
	if err := pprof.StartCPUProfile(&t.prof); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	t.base = readCounters()
	return nil
}

// pause ends a traced segment: it adds the segment's counter deltas,
// writes its CPU profile under .bench_build/trace and folds it.
func (t *tracer) pause() error {
	for k, v := range readCounters().since(t.base) {
		t.delta[k] += v
	}
	pprof.StopCPUProfile()
	if err := writeTraceFile(fmt.Sprintf("%s.%d.cpu.pprof", t.tag, t.segs), t.prof.Bytes()); err != nil {
		return err
	}
	t.segs++
	return foldProfile(t.prof.Bytes(), t.samples)
}

// span records [start, end] and returns its id.
func (t *tracer) span(parent int, name string, start, end time.Time) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		Start: msSince(t.t0, start), End: msSince(t.t0, end)})
	return id
}

// finish writes the span log and returns the traced segments' counter
// deltas and the profile fold as percent of all samples per bucket.
func (t *tracer) finish() (counters, map[string]float64, error) {
	sp, err := json.Marshal(t.spans)
	if err != nil {
		return nil, nil, err
	}
	if err := writeTraceFile(t.tag+".spans.json", sp); err != nil {
		return nil, nil, err
	}
	var total float64
	for _, n := range t.samples {
		total += n
	}
	fold := map[string]float64{}
	for k, n := range t.samples {
		fold[k] = 100 * n / total
	}
	return t.delta, fold, nil
}

func writeTraceFile(name string, b []byte) error {
	dir := filepath.Join(".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

func msSince(t0, t time.Time) float64 { return ms(t.Sub(t0)) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// gcFrames are the runtime entry points of garbage collection and heap
// allocation: a sample with any of them on its stack is GC/malloc time.
var gcFrames = map[string]bool{
	"runtime.mallocgc": true, "runtime.newobject": true, "runtime.newarray": true,
	"runtime.makeslice": true, "runtime.makemap": true, "runtime.makemap_small": true, "runtime.growslice": true,
	"runtime.rawstring": true, "runtime.rawbyteslice": true, "runtime.gcBgMarkWorker": true,
	"runtime.gcAssistAlloc": true, "runtime.bgsweep": true, "runtime.bgscavenge": true,
	"runtime.gcStart": true, "runtime.GC": true, "runtime.gcMarkTermination": true,
}

// foldProfile adds a gzipped pprof CPU profile's sample counts to fold
// by bucket: a sample with a GC or allocation frame on its stack counts
// as "gc"; any other goes to the innermost adelie/internal package on
// its stack, so a runtime or stdlib helper (memmove, an RWMutex) is
// charged to the repository package that called it.
func foldProfile(gz []byte, fold map[string]float64) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return err
	}
	for _, s := range p.samples {
		if len(s.values) > 0 {
			fold[p.attribute(s.locs)] += float64(s.values[0])
		}
	}
	return nil
}

// attribute names the bucket a sample's stack (leaf first) folds into.
func (p *profile) attribute(locs []uint64) string {
	var frames []string
	for _, id := range locs {
		for _, fn := range p.locs[id] { // innermost inlined function first
			frames = append(frames, p.strings[p.funcs[fn]])
		}
	}
	for _, f := range frames {
		if gcFrames[f] {
			return "gc"
		}
	}
	for _, f := range frames {
		if pkg := packageOf(f); strings.HasPrefix(pkg, "adelie/internal/") {
			return strings.TrimPrefix(pkg, "adelie/internal/")
		}
	}
	return "other"
}

// packageOf extracts the import path from a Go symbol name such as
// "adelie/internal/cpu.(*CPU).runChain".
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// profile is the part of a pprof profile the fold needs: per-sample
// location stacks and values, each location's function ids (inlined
// frames innermost first), and function names.
type profile struct {
	samples []struct {
		locs   []uint64
		values []int64
	}
	locs    map[uint64][]uint64
	funcs   map[uint64]int64
	strings []string
}

// parseProfile decodes the protobuf encoding of profile.proto's
// Profile message (fields sample=2, location=4, function=5,
// string_table=6), using only the standard library.
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	err := eachField(b, func(field int, v uint64, msg []byte) error {
		switch field {
		case 2:
			var s struct {
				locs   []uint64
				values []int64
			}
			err := eachField(msg, func(f int, v uint64, m []byte) error {
				switch f {
				case 1:
					return appendPacked(&s.locs, v, m)
				case 2:
					var vals []uint64
					if err := appendPacked(&vals, v, m); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(msg, func(f int, v uint64, m []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line{function_id = 1}
					return eachField(m, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.locs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(msg, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	for _, n := range p.funcs {
		if n < 0 || int(n) >= len(p.strings) {
			return nil, errors.New("cpu profile: function name out of range")
		}
	}
	return p, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(field int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var msg []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			msg, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, v, msg); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field's value, which the
// encoder writes either one per field (msg == nil) or packed.
func appendPacked(dst *[]uint64, v uint64, msg []byte) error {
	if msg == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(msg) > 0 {
		x, n := uvarint(msg)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		msg = msg[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// simLifecycle times the sim layer's machine lifecycle on one shape
// (the server experiment's: 4-queue RSS NIC, NVMe with completion IRQs,
// full re-randomization build): cold boot (NewMachine + LoadDriver),
// Snapshot, Fork and Release, reps times; it returns the medians.
func simLifecycle(seed int64, reps int) (bootMs, snapMs, forkUs, releaseUs float64, err error) {
	opts := drivers.BuildOpts{PIC: true, Retpoline: true, Rerand: true, RetEncrypt: true, StackRerand: true}
	var boot, snap, fork, rel []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		m, err := sim.NewMachine(sim.Config{NumCPUs: 20, Seed: seed, KASLR: kernel.KASLRFull64, NICQueues: 4})
		if err != nil {
			return 0, 0, 0, 0, err
		}
		for _, d := range []string{"e1000emq", "nvme", "nvmeirq"} {
			if _, err := m.LoadDriver(d, opts); err != nil {
				return 0, 0, 0, 0, err
			}
		}
		t1 := time.Now()
		if err := m.Snapshot(); err != nil {
			return 0, 0, 0, 0, err
		}
		t2 := time.Now()
		f, err := m.Fork()
		if err != nil {
			return 0, 0, 0, 0, err
		}
		t3 := time.Now()
		f.Release()
		t4 := time.Now()
		m.Release()
		boot = append(boot, msSince(t0, t1))
		snap = append(snap, msSince(t1, t2))
		fork = append(fork, 1e3*msSince(t2, t3))
		rel = append(rel, 1e3*msSince(t3, t4))
	}
	return median(boot), median(snap), median(fork), median(rel), nil
}

// layerMetrics fills the per-layer metrics every traced run shares:
// counter ratios over d (normalised per simulated op or per run), the
// profile fold and the sim lifecycle timings. busyNs is the host time
// spent inside the program's runs during the traced window.
func layerMetrics(m map[string]float64, d counters, fold map[string]float64, runs int, busyNs float64, seed int64) error {
	ops := float64(d.ops())
	perOp := func(n string) float64 {
		if ops == 0 {
			return 0
		}
		return float64(d[n]) / ops
	}
	perRun := func(n string) float64 { return float64(d[n]) / float64(max(runs, 1)) }
	if blocks := float64(d["adelie_engine_blocks_total"]); blocks > 0 {
		m["cpu.chain_pct"] = 100 * float64(d["adelie_engine_chained_blocks_total"]) / blocks
		m["cpu.ichain_pct"] = 100 * float64(d["adelie_engine_indirect_chained_total"]) / blocks
	}
	m["cpu.blocks_per_op"] = perOp("adelie_engine_blocks_total")
	if ops > 0 {
		m["engine.host_ns_per_op"] = busyNs / ops
	}
	if kc := float64(d["adelie_engine_busy_cycles_total"]) / 1e3; kc > 0 {
		m["engine.host_ns_per_kcycle"] = busyNs / kc
	}
	m["engine.irqs_per_op"] = perOp("adelie_engine_irqs_total")
	m["engine.irq_cycles_per_op"] = perOp("adelie_engine_irq_cycles_total")
	m["bus.irqs_raised"] = perRun("adelie_bus_irqs_raised_total")
	m["bus.irqs_delivered"] = perRun("adelie_bus_irqs_delivered_total")
	m["bus.irqs_spurious"] = perRun("adelie_bus_irqs_spurious_total")
	m["rerand.epochs"] = perRun("adelie_rerand_epochs_total")
	m["rerand.pages_remapped"] = perRun("adelie_rerand_pages_remapped_total")
	m["kernel.modules_loaded"] = perRun("adelie_kernel_modules_loaded_total")
	m["runtime.allocs_per_op"] = perOp("mallocs")
	for _, l := range foldedLayers {
		m[l+".self_pct"] = fold[l]
	}
	m["runtime.gc_pct"] = fold["gc"]
	var err error
	m["sim.boot_ms"], m["sim.snapshot_ms"], m["sim.fork_us"], m["sim.release_us"], err = simLifecycle(seed, 5)
	return err
}

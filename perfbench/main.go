// Command perfbench is the repository's benchmark. It runs one workload
// per process against the simulator's stable public surfaces (the
// experiment registry, the fleet service's HTTP API, the sim machine
// lifecycle, the obs counters and the service/fork-pool stats), checks
// that every result is correct, and prints one JSON result line.
//
// Run it from the repository root through perfbench/run.sh, which
// builds it from source:
//
//	bash perfbench/run.sh --workload dd_batch --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics, measured untraced;
// --trace 1 reports the per-layer metrics from a traced window (CPU
// profile, counter deltas, spans) and the tracing overhead against an
// untraced window of the same length. README.md gives the rationale.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// endToEnd lists the untraced metrics, with units, in BENCHMARK.json order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"}, {"sim_ops_per_s", "1/s"}, {"req_ms_p50", "ms"},
	{"req_ms_p99", "ms"}, {"max_rps", "1/s"}, {"host_mem_mb", "MB"},
}

// config is one invocation's settings; rng derives every generated input.
type config struct {
	seed   int64
	window time.Duration
	traced bool
	rng    *rand.Rand
}

// outcome is what a workload reports: operations attempted and failed
// (errors and correctness mismatches), metric values by name, reasons
// the run is invalid even with no failed operation, and details for the
// record line.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
	invalid           []string
	detail            map[string]any
}

func main() {
	name := flag.String("workload", "", "dd_batch, io_batch or fleet_open")
	seed := flag.Int64("seed", 1, "workload seed; every generated input derives from it")
	seconds := flag.Int("seconds", 30, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "0: untraced end-to-end metrics; 1: traced per-layer metrics")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, trace int) error {
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("want --seconds >= 1 and --trace 0|1")
	}
	if _, err := os.Stat("go.mod"); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	workloads := map[string]func(config) (*outcome, error){
		"dd_batch": ddBatch, "io_batch": ioBatch, "fleet_open": fleetOpen,
	}
	wl, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want dd_batch, io_batch or fleet_open)", name)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	cfg := config{
		seed:   seed,
		window: time.Duration(seconds) * time.Second,
		traced: trace == 1,
		rng:    rand.New(rand.NewPCG(uint64(seed), 0x5eed)),
	}
	o, err := wl(cfg)
	if err != nil {
		return err
	}
	want := endToEnd
	if cfg.traced {
		want = perLayer
	} else {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			return fmt.Errorf("getrusage: %w", err)
		}
		o.metrics["host_mem_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]metric{}
	for _, w := range want {
		v := o.metrics[w.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			o.invalid = append(o.invalid, w.name+" is not finite")
			v = 0
		}
		metrics[w.name] = metric{v, w.unit}
	}
	record, err := json.Marshal(map[string]any{
		"record": map[string]any{
			"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
			"host": fingerprint(), "invalid": o.invalid, "detail": o.detail,
		},
	})
	if err != nil {
		return err
	}
	result, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{o.failed == 0 && len(o.invalid) == 0 && o.attempted > 0, o.attempted, o.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n%s\n", record, result)
	return nil
}

// fingerprint identifies the host and the code measured: CPU model,
// core count, GOMAXPROCS, Go version, the VCS revision when the build
// has one, and a digest of the repository's Go sources either way.
func fingerprint() map[string]any {
	fp := map[string]any{
		"cpu_model": "unknown", "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "goos_goarch": runtime.GOOS + "/" + runtime.GOARCH,
		"source_sha256": sourceDigest(),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp["cpu_model"] = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" || s.Key == "vcs.modified" {
				fp[s.Key] = s.Value
			}
		}
	}
	return fp
}

// sourceDigest hashes go.mod and every .go file under the repository
// root in path order: the commit identity when the checkout has no VCS.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (path == "go.mod" || strings.HasSuffix(path, ".go")) {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s %d\n", path, len(b))
			h.Write(b)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// median returns the middle value of xs (mean of the two middle values
// for an even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// percentile is the nearest-rank p-th percentile of xs; 0 for none.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// medianOfParts is the median, over n consecutive parts of xs (fewer
// when xs is shorter), of each part's nearest-rank p-th percentile.
func medianOfParts(xs []float64, n int, p float64) float64 {
	n = min(n, max(len(xs), 1))
	var ps []float64
	for i := 0; i < n; i++ {
		ps = append(ps, percentile(xs[i*len(xs)/n:(i+1)*len(xs)/n], p))
	}
	return median(ps)
}

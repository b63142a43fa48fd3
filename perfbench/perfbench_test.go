package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

func TestMedianOfParts(t *testing.T) {
	// One stall (90) lands in one of five parts; the median of the
	// parts' maxima is the typical part's slowest run.
	xs := []float64{10, 11, 12, 10, 13, 11, 90, 10, 12, 11}
	if got := medianOfParts(xs, 5, 100); got != 12 {
		t.Errorf("median of part maxima = %v, want 12", got)
	}
	if got := medianOfParts(xs, 2, 50); got != 11 {
		t.Errorf("median of half medians = %v, want 11", got)
	}
	if got := medianOfParts([]float64{3, 1, 2}, 5, 100); got != 2 {
		t.Errorf("median of part maxima of a short series = %v, want its median 2", got)
	}
}

func TestThroughput(t *testing.T) {
	// 1000 completions every 2 ms (500/s), with one 1 s stall midway:
	// the overall rate falls by a third, the block median does not move.
	var done []time.Duration
	at := time.Duration(0)
	for i := 0; i < 1000; i++ {
		if i == 500 {
			at += time.Second
		}
		at += 2 * time.Millisecond
		done = append(done, at)
	}
	if got := throughput(done); math.Abs(got-500) > 1e-6 {
		t.Errorf("throughput = %v, want 500", got)
	}
	if got := throughput(done[:50]); math.Abs(got-500) > 1e-6 {
		t.Errorf("throughput of a short phase = %v, want 500", got)
	}
}

func TestBacklogHalves(t *testing.T) {
	ms := time.Millisecond
	// Steady: every request completes 5 ms after dispatch.
	var disp, done []time.Duration
	for at := time.Duration(0); at < time.Second; at += 20 * ms {
		disp, done = append(disp, at), append(done, at+5*ms)
	}
	if h := backlogHalves(disp, done, time.Second); h[0] != h[1] {
		t.Errorf("steady backlog halves = %v, want equal", h)
	}
	// Overloaded: completions fall further behind every request.
	disp, done = nil, nil
	for i := 0; i < 50; i++ {
		at := time.Duration(i) * 20 * ms
		disp, done = append(disp, at), append(done, at+time.Duration(i)*10*ms)
	}
	if h := backlogHalves(disp, done, time.Second); h[1] <= 2*h[0]+2 {
		t.Errorf("growing backlog halves = %v, want second > 2*first+2", h)
	}
}

//go:noinline
func spin(d time.Duration) (n int) {
	for end := time.Now().Add(d); time.Now().Before(end); n++ {
	}
	return n
}

func TestFoldProfileAttributesSamples(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	fold := map[string]float64{}
	if err := foldProfile(buf.Bytes(), fold); err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, n := range fold {
		total += n
	}
	// spin is outside adelie/internal, so its samples fold to "other".
	if total == 0 || fold["other"] == 0 {
		t.Fatalf("fold = %v, want samples in other", fold)
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"adelie/internal/cpu.(*CPU).runChain": "adelie/internal/cpu",
		"runtime.mallocgc":                    "runtime",
		"net/http.(*conn).serve":              "net/http",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

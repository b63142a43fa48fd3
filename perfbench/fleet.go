package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"adelie/internal/service"
)

// The fleet_open workload: Poisson arrivals from independent users
// (an open loop) against an in-process daemon over loopback HTTP, then
// nproc closed-loop callers that keep every pool slot busy.
const (
	fixedRPS = 60 // the fixed offered rate of the open-loop phase
	sloP90Ms = 40 // SLO on the fixed-rate phase: p90 from due time
	// genLateMs is about a third of the mean gap between arrivals at
	// fixedRPS: when the median request is dispatched later than this
	// after its due time, the generator has fallen behind its schedule.
	genLateMs = 5
	// rateBlock is how many completions each block of the closed-loop
	// phase's throughput median spans.
	rateBlock = 100
)

// fleetMix is the request mix, all at quick scale with service times
// within ~3x of each other. Each request also picks one of fleetSeeds
// as its machine seed, so the daemon serves 4 x 4 shapes, far more
// templates than pool slots. The set is fixed, so every run serves the
// same shapes; --seed draws the arrival times and which shape each
// request picks.
var fleetMix = []struct {
	exp    string
	params map[string]int64
}{
	{"fig9", map[string]int64{"ops": 200}},
	{"fig6", nil},
	{"coalesce", nil},
	{"server", nil},
}

var fleetSeeds = []int64{1, 2, 3, 4}

// shape is one distinct request: its body and the table a direct
// registry run with the same params produced at set-up.
type shape struct {
	name string
	body []byte
	want []byte
}

// fleet is one running daemon plus the client that loads it.
type fleet struct {
	shapes  []shape
	svc     *service.Service
	srv     *http.Server
	served  chan error
	client  *http.Client
	url     string
	senders int
}

// reqResult is one request's timeline (durations since phase start) and
// what the daemon reported about it.
type reqResult struct {
	shape                       int
	due, dispatched, sent, done time.Duration
	ok                          bool
	err                         string
	queueMs, handlerMs          float64
}

func newFleet(seeds []int64) (*fleet, error) {
	f := &fleet{senders: runtime.NumCPU()}
	for _, m := range fleetMix {
		for _, seed := range seeds {
			params := map[string]int64{"seed": seed}
			anyParams := map[string]any{"seed": seed}
			for k, v := range m.params {
				params[k], anyParams[k] = v, v
			}
			want, err := runExperiment(m.exp, true, params, false)
			if err != nil {
				return nil, err
			}
			body, err := json.Marshal(service.RunRequest{Experiment: m.exp, Params: anyParams, Quick: true})
			if err != nil {
				return nil, err
			}
			f.shapes = append(f.shapes, shape{fmt.Sprintf("%s seed=%d", m.exp, seed), body, want})
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f.svc = service.New(service.Config{PoolSize: f.senders})
	f.srv = &http.Server{Handler: f.svc.Handler()}
	f.served = make(chan error, 1)
	go func() { f.served <- f.srv.Serve(ln) }()
	f.url = "http://" + ln.Addr().String() + "/v1/run"
	f.client = &http.Client{
		Timeout: 2 * time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost: f.senders, MaxIdleConnsPerHost: f.senders, DisableCompression: true,
		},
	}
	return f, nil
}

// warm sends one request per shape, which boots and snapshots the
// shape's machine templates in the daemon's pool.
func (f *fleet) warm(o *outcome) {
	start := time.Now()
	for i := range f.shapes {
		r := reqResult{shape: i}
		f.send(start, &r)
		o.count(r)
	}
}

// close shuts the HTTP server and drains and closes the service.
func (f *fleet) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := f.srv.Shutdown(ctx)
	if serr := <-f.served; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	f.client.CloseIdleConnections()
	if derr := f.svc.Drain(ctx); err == nil {
		err = derr
	}
	f.svc.Close()
	return err
}

// send issues one request and checks its reply: status 200 and a table
// byte-identical to the direct run's.
func (f *fleet) send(start time.Time, r *reqResult) {
	r.sent = time.Since(start)
	resp, err := f.client.Post(f.url, "application/json", bytes.NewReader(f.shapes[r.shape].body))
	if err != nil {
		r.done, r.err = time.Since(start), err.Error()
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.done = time.Since(start)
	var rep struct {
		Table     json.RawMessage `json:"table"`
		ElapsedUs float64         `json:"elapsed_us"`
	}
	switch {
	case err != nil:
		r.err = err.Error()
	case resp.StatusCode != http.StatusOK:
		r.err = fmt.Sprintf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	case json.Unmarshal(body, &rep) != nil:
		r.err = "undecodable reply"
	case !bytes.Equal(rep.Table, f.shapes[r.shape].want):
		r.err = f.shapes[r.shape].name + ": served table differs from the direct run's"
	default:
		q, _ := strconv.ParseFloat(resp.Header.Get("X-Adelie-Queue-Wait-Us"), 64)
		r.ok, r.queueMs, r.handlerMs = true, q/1e3, (rep.ElapsedUs-q)/1e3
	}
}

// arrival is one scheduled request.
type arrival struct {
	at    time.Duration
	shape int
}

// schedule draws a Poisson arrival process of the given rate over d,
// conditioned on its expected count (uniform arrival times, sorted),
// with the shapes dealt evenly and shuffled, so every seed offers the
// same load and mix in a different order and timing.
func (f *fleet) schedule(cfg config, rate float64, d time.Duration) []arrival {
	n := int(math.Round(rate * d.Seconds()))
	arr := make([]arrival, n)
	for i := range arr {
		arr[i] = arrival{time.Duration(cfg.rng.Float64() * float64(d)), i % len(f.shapes)}
	}
	cfg.rng.Shuffle(n, func(i, j int) { arr[i].shape, arr[j].shape = arr[j].shape, arr[i].shape })
	sort.Slice(arr, func(i, j int) bool { return arr[i].at < arr[j].at })
	return arr
}

// phase offers the arrivals: this goroutine dispatches each at its due
// time onto a queue that f.senders goroutines (one keep-alive connection
// each at most) drain. It returns when every request has completed.
// Callers run a GC first, so earlier phases' garbage is not charged to
// this one.
func (f *fleet) phase(arr []arrival) (time.Time, []reqResult) {
	res := make([]reqResult, len(arr))
	work := make(chan int, len(arr)) // one slot per request: dispatch never blocks
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < f.senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				f.send(start, &res[i])
			}
		}()
	}
	for i, a := range arr {
		if d := time.Until(start.Add(a.at)); d > 0 {
			time.Sleep(d)
		}
		res[i].shape, res[i].due, res[i].dispatched = a.shape, a.at, time.Since(start)
		work <- i
	}
	close(work)
	wg.Wait()
	return start, res
}

// phaseStats summarises one phase. A failed request counts as missing
// every latency limit: its latency is math.MaxFloat64.
type phaseStats struct {
	Rate    float64    `json:"rate"`
	N       int        `json:"n"`
	Failed  int        `json:"failed"`
	P50     float64    `json:"p50_ms"`
	P90     float64    `json:"p90_ms"`
	P99     float64    `json:"p99_ms"`
	LateP99 float64    `json:"gen_late_p99_ms"`
	Backlog [2]float64 `json:"backlog_halves"`
	Growing bool       `json:"backlog_growing"`
	Pass    bool       `json:"pass"`
	WallS   float64    `json:"wall_s"`
}

func stats(rate float64, d time.Duration, res []reqResult) phaseStats {
	s := phaseStats{Rate: rate, N: len(res)}
	var lat, late []float64
	var dispatched, done []time.Duration
	for _, r := range res {
		l := ms(r.done - r.due)
		if !r.ok {
			s.Failed++
			l = math.MaxFloat64
		}
		lat = append(lat, l)
		late = append(late, ms(r.dispatched-r.due))
		dispatched, done = append(dispatched, r.dispatched), append(done, r.done)
		s.WallS = max(s.WallS, r.done.Seconds())
	}
	s.P50, s.P90, s.P99, s.LateP99 = percentile(lat, 50), percentile(lat, 90), percentile(lat, 99), percentile(late, 99)
	s.Backlog = backlogHalves(dispatched, done, d)
	s.Growing = s.Backlog[1] > 2*s.Backlog[0]+2
	s.Pass = s.Failed == 0 && s.P90 <= sloP90Ms && !s.Growing
	return s
}

// backlogHalves is the mean number of requests dispatched but not yet
// completed, sampled every 10 ms over each half of the arrival window.
func backlogHalves(dispatched, done []time.Duration, d time.Duration) [2]float64 {
	sort.Slice(done, func(i, j int) bool { return done[i] < done[j] })
	var sum [2]float64
	var n [2]int
	di, ci := 0, 0
	for t := time.Duration(0); t < d; t += 10 * time.Millisecond {
		for di < len(dispatched) && dispatched[di] <= t {
			di++
		}
		for ci < len(done) && done[ci] <= t {
			ci++
		}
		h := 0
		if t >= d/2 {
			h = 1
		}
		sum[h] += float64(di - ci)
		n[h]++
	}
	return [2]float64{sum[0] / float64(max(n[0], 1)), sum[1] / float64(max(n[1], 1))}
}

// saturate runs f.senders closed-loop clients for d. Each sends its next
// request, the next shape of a seed-shuffled even deal, as soon as its
// previous reply arrives. At most nproc requests are then in flight, one
// per pool slot, so the daemon runs flat out and no request queues for a
// slot. Times are since the phase start; due is when the request was sent.
func (f *fleet) saturate(cfg config, d time.Duration) []reqResult {
	order := make([]int, 64*len(f.shapes))
	for i := range order {
		order[i] = i % len(f.shapes)
	}
	cfg.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	var next atomic.Int64
	per := make([][]reqResult, f.senders)
	var wg sync.WaitGroup
	start := time.Now()
	for w := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				r := reqResult{shape: order[int(next.Add(1)-1)%len(order)], due: time.Since(start)}
				r.dispatched = r.due
				f.send(start, &r)
				per[w] = append(per[w], r)
			}
		}()
	}
	wg.Wait()
	var res []reqResult
	for _, p := range per {
		res = append(res, p...)
	}
	return res
}

// throughput is the median, over consecutive blocks of rateBlock
// completions, of each block's completion rate: a stall confined to a
// few blocks moves it little. With fewer than two blocks it is the
// overall rate.
func throughput(done []time.Duration) float64 {
	t := append([]time.Duration(nil), done...)
	sort.Slice(t, func(i, j int) bool { return t[i] < t[j] })
	if len(t) < 2*rateBlock+1 {
		if len(t) < 2 {
			return 0
		}
		return float64(len(t)-1) / (t[len(t)-1] - t[0]).Seconds()
	}
	var rates []float64
	for i := 0; i+rateBlock < len(t); i += rateBlock {
		rates = append(rates, rateBlock/(t[i+rateBlock]-t[i]).Seconds())
	}
	return median(rates)
}

func (o *outcome) count(r reqResult) {
	o.attempted++
	if !r.ok {
		o.failed++
		if _, ok := o.detail["first_failure"]; !ok {
			o.detail["first_failure"] = r.err
		}
	}
}

func fleetOpen(cfg config) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}, detail: map[string]any{}}

	// Set-up: direct runs for the expected tables, service.New, and one
	// warm-up request per shape. It is repeated (the earlier daemons
	// closed) and the median reported.
	reps := 3
	if cfg.traced {
		reps = 1
	}
	var f *fleet
	var setups []float64
	for i := 0; i < reps; i++ {
		if f != nil {
			if err := f.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if f, err = newFleet(fleetSeeds); err != nil {
			return nil, err
		}
		f.warm(o)
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer f.close()
	o.metrics["setup_s"] = median(setups)
	o.detail["setup_s"] = setups

	// offer runs one fixed-rate phase of length d, as a traced segment
	// when tr is set.
	offer := func(d time.Duration, tr *tracer) (phaseStats, []reqResult, uint64, error) {
		arr := f.schedule(cfg, fixedRPS, d)
		runtime.GC()
		if tr != nil {
			if err := tr.resume(); err != nil {
				return phaseStats{}, nil, 0, err
			}
		}
		ops0 := readCounters().ops()
		start, res := f.phase(arr)
		ops := readCounters().ops() - ops0
		if tr != nil {
			if err := tr.pause(); err != nil {
				return phaseStats{}, nil, 0, err
			}
		}
		for _, r := range res {
			o.count(r)
			if tr != nil {
				id := tr.span(-1, "request", start.Add(r.due), start.Add(r.done))
				tr.span(id, "wait_sender", start.Add(r.due), start.Add(r.sent))
				tr.span(id, "round_trip:"+f.shapes[r.shape].name, start.Add(r.sent), start.Add(r.done))
			}
		}
		return stats(fixedRPS, d, res), res, ops, nil
	}
	// keptUp marks the run invalid if the generator fell behind over
	// the fixed-rate requests, and returns their dispatch lateness p99.
	keptUp := func(res []reqResult) float64 {
		var late []float64
		for _, r := range res {
			late = append(late, ms(r.dispatched-r.due))
		}
		if p50 := median(late); p50 > genLateMs {
			o.invalid = append(o.invalid, fmt.Sprintf("generator fell behind: median dispatch lateness %.1f ms > %d ms", p50, genLateMs))
		}
		return percentile(late, 99)
	}

	if !cfg.traced {
		st, res, ops, err := offer(cfg.window/2, nil)
		if err != nil {
			return nil, err
		}
		o.detail["gen_late_ms_p99"] = keptUp(res)
		o.metrics["sim_ops_per_s"] = float64(ops) / st.WallS
		runtime.GC()
		sat := f.saturate(cfg, cfg.window/2)
		var lat []float64
		var doneAt []time.Duration
		for _, r := range sat {
			o.count(r)
			doneAt = append(doneAt, r.done)
			if r.ok {
				lat = append(lat, ms(r.done-r.sent))
			} else {
				lat = append(lat, math.MaxFloat64) // a failed request misses every latency limit
			}
		}
		o.metrics["max_rps"] = throughput(doneAt)
		o.metrics["req_ms_p50"], o.metrics["req_ms_p99"] = percentile(lat, 50), percentile(lat, 99)
		o.detail["fixed_rate"] = st
		o.detail["saturated"] = map[string]float64{"n": float64(len(sat)), "p90_ms": percentile(lat, 90)}
		return o, nil
	}

	// Traced: fixed-rate chunks alternate untraced and traced, so host
	// drift falls on both sides of the overhead.
	tr := newTracer(fmt.Sprintf("fleet_open-seed%d", cfg.seed))
	var plain, traced []reqResult
	var phases []phaseStats
	var s0, s1, sd service.Stats
	for i := 0; i < 6; i++ {
		if i%2 == 0 {
			st, res, _, err := offer(cfg.window/6, nil)
			if err != nil {
				return nil, err
			}
			plain, phases = append(plain, res...), append(phases, st)
			continue
		}
		s0 = f.svc.StatsNow()
		st, res, _, err := offer(cfg.window/6, tr)
		if err != nil {
			return nil, err
		}
		s1 = f.svc.StatsNow()
		traced, phases = append(traced, res...), append(phases, st)
		sd.Errors += s1.Errors - s0.Errors
		sd.QueueFull += s1.QueueFull - s0.QueueFull
		sd.ForksServed += s1.ForksServed - s0.ForksServed
		sd.ColdBoots += s1.ColdBoots - s0.ColdBoots
	}
	delta, fold, err := tr.finish()
	if err != nil {
		return nil, err
	}
	m := o.metrics
	var queue, handler, client []float64
	var busyMs float64
	for _, r := range traced {
		if r.ok {
			queue, handler = append(queue, r.queueMs), append(handler, r.handlerMs)
			client = append(client, ms(r.done-r.sent)-r.queueMs-r.handlerMs)
			busyMs += r.handlerMs
		}
	}
	if err := layerMetrics(m, delta, fold, len(traced), busyMs*1e6, cfg.seed); err != nil {
		return nil, err
	}
	o.detail["service_ms_p50"] = map[string]float64{"queue": median(queue), "handler": median(handler), "client": median(client)}
	m["service.errors"], m["service.queue_full"] = float64(sd.Errors), float64(sd.QueueFull)
	m["sim.forks"] = float64(sd.ForksServed) / float64(max(len(traced), 1))
	m["sim.cold_boots"], m["sim.templates"] = float64(sd.ColdBoots), float64(s1.ForkTemplates)
	var plainHandler []float64
	for _, r := range plain {
		if r.ok {
			plainHandler = append(plainHandler, r.handlerMs)
		}
	}
	o.detail["gen_late_ms_p99"] = keptUp(append(plain, traced...))
	m["bench.trace_overhead_pct"] = 100 * (median(handler)/median(plainHandler) - 1)
	o.detail["phases"], o.detail["fold_pct"] = phases, fold
	return o, nil
}

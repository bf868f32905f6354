package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro"
)

// result is the part of a response that must equal the golden.
type result struct {
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

// response is the server's /v1/query success body.
type response struct {
	result
	WallMS   float64 `json:"wall_ms"`
	QueueMS  float64 `json:"queue_ms"`
	PlanMode string  `json:"plan_mode"`
}

// sample is one request as the client saw it. The body is kept only until
// the window ends: decoding and comparing happen after the clock stops.
type sample struct {
	tmpl    int
	latency time.Duration
	status  int
	body    []byte
	err     error
}

// client is one closed-loop connection: it sends its next request only
// after the last byte of the previous reply.
type client struct {
	http      *http.Client
	url       string
	templates []template
	bodies    [][]byte // pre-marshalled request per template
}

func newClient(addr string, id int, templates []template) (*client, error) {
	c := &client{
		// One connection per client, kept alive, so the run always has
		// exactly numClients connections open.
		http: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
		url:       "http://" + addr + "/v1/query",
		templates: templates,
	}
	for _, t := range templates {
		body, err := json.Marshal(map[string]string{"sql": t.SQL, "session": fmt.Sprintf("c%d", id)})
		if err != nil {
			return nil, err
		}
		c.bodies = append(c.bodies, body)
	}
	return c, nil
}

// do sends one request and times it from send to the last body byte.
func (c *client) do(ctx context.Context, tmpl int) sample {
	s := sample{tmpl: tmpl}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url, bytes.NewReader(c.bodies[tmpl]))
	if err != nil {
		s.err = err
		return s
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		s.err = err
		s.latency = time.Since(start)
		return s
	}
	s.body, s.err = io.ReadAll(resp.Body)
	s.latency = time.Since(start)
	resp.Body.Close()
	s.status = resp.StatusCode
	return s
}

// phase accumulates everything the measured windows produce.
type phase struct {
	attempted, failed int
	firstFailure      string

	latMS      []float64 // every measured request
	overheadUS []float64 // client latency - wall_ms - queue_ms
	queueUS    []float64
	respBytes  int64
	modes      map[string]int

	// first is the order of the first measured requests, clients
	// interleaved: what the traced run replays.
	first []replayReq

	windowQPS []float64
	refMS     []float64
	cpuMS     float64
	allocKB   float64
	gcCycles  uint32
	gcPauseMS float64

	// counters sums, over the windows, the deltas of every obs counter and
	// histogram (as <name>_count and <name>_sum) and of the dfs IO stats.
	counters map[string]float64

	cycles []*maxson.CycleReport
	cycleS []float64
}

// runner drives one workload against one bed.
type runner struct {
	bed     *bed
	w       workload
	clients [numClients]*client
	golden  [numClients][]result
	order   *rand.Rand // request order, its own stream so appends don't shift it
	ref     []byte     // reference-kernel buffer
	refSum  uint64
}

func newRunner(ctx context.Context, b *bed, w workload, seed int64) (*runner, error) {
	r := &runner{bed: b, w: w,
		order: rand.New(rand.NewSource(seed ^ 0x5eed)), ref: make([]byte, refKernelBytes/b.scale)}
	for i := range r.ref {
		r.ref[i] = byte(i * 31)
	}
	for c := range r.clients {
		cl, err := newClient(b.addr, c, w.clients[c])
		if err != nil {
			return nil, err
		}
		r.clients[c] = cl
	}
	return r, r.refreshGoldens(ctx)
}

func (r *runner) close() {
	for _, c := range r.clients {
		c.http.CloseIdleConnections()
	}
}

// refreshGoldens recomputes every template's golden from the plain engine,
// one goroutine per client; cycle_mixed calls it after each day's append.
func (r *runner) refreshGoldens(ctx context.Context) error {
	var wg sync.WaitGroup
	var errs [numClients]error
	for c, cl := range r.clients {
		wg.Add(1)
		go func(c int, cl *client) {
			defer wg.Done()
			r.golden[c] = r.golden[c][:0]
			for _, t := range cl.templates {
				g, err := r.bed.golden(ctx, t)
				if err != nil {
					errs[c] = err
					return
				}
				r.golden[c] = append(r.golden[c], g)
			}
		}(c, cl)
	}
	wg.Wait()
	return errors.Join(errs[:]...)
}

// orders draws one window's request order for every client. In lockstep
// both clients replay the same order, so they always send the same
// statement together.
func (r *runner) orders(n int) [numClients][]int {
	var o [numClients][]int
	for c := range o {
		if r.w.lockstep && c > 0 {
			o[c] = o[0]
			continue
		}
		o[c] = windowOrder(r.order, n, len(r.clients[c].templates))
	}
	return o
}

// window runs one equal-count window: every client sends its n requests,
// the wall clock stops when the last reply is in, and only then are replies
// decoded and compared. On cycle_mixed a cache-maintenance cycle starts when
// a quarter of the window's requests have been sent, triggered by the request
// index and never by a timer, so that it ends inside the day's traffic; CPU,
// allocation and counters are read only once it has returned, so the whole
// cycle is booked to the window whether or not it outlasted the last reply.
func (r *runner) window(ctx context.Context, n int, p *phase) error {
	orders := r.orders(n)
	var samples [numClients][]sample
	for c := range samples {
		samples[c] = make([]sample, 0, n)
	}
	type cycleResult struct {
		rep  *maxson.CycleReport
		wall time.Duration
		err  error
	}
	cycleDone := make(chan cycleResult, 1)
	var sent atomic.Int64
	trigger := int64(n * numClients / 4)
	if !r.w.cycles || p == nil {
		trigger = -1
	}

	before := r.snapshot()
	var ru0, ru1 syscall.Rusage
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru0); err != nil {
		return fmt.Errorf("getrusage: %w", err)
	}
	start := time.Now()
	var wg sync.WaitGroup
	for c := range r.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, tmpl := range orders[c] {
				if sent.Add(1)-1 == trigger {
					go func() {
						cs := time.Now()
						rep, err := r.bed.sys.RunMidnightCycleCtx(ctx)
						cycleDone <- cycleResult{rep, time.Since(cs), err}
					}()
				}
				samples[c] = append(samples[c], r.clients[c].do(ctx, tmpl))
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	var cyc cycleResult
	if trigger >= 0 {
		cyc = <-cycleDone
	}
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru1); err != nil {
		return fmt.Errorf("getrusage: %w", err)
	}
	runtime.ReadMemStats(&ms1)
	after := r.snapshot()
	if p == nil { // warm-up: nothing is recorded
		return cyc.err
	}

	for i := 0; i < n; i++ {
		for c := range samples {
			r.verify(p, c, samples[c][i])
			if len(p.first) < replayRequests {
				p.first = append(p.first, replayReq{c, samples[c][i].tmpl})
			}
		}
	}
	p.windowQPS = append(p.windowQPS, float64(n*numClients)/wall.Seconds())
	p.cpuMS += rusageMS(ru1) - rusageMS(ru0)
	p.allocKB += float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e3
	p.gcCycles += ms1.NumGC - ms0.NumGC
	p.gcPauseMS += float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	for k, v := range after {
		p.counters[k] += v - before[k]
	}
	if trigger >= 0 {
		if cyc.err != nil {
			return fmt.Errorf("midnight cycle under traffic: %w", cyc.err)
		}
		p.cycles = append(p.cycles, cyc.rep)
		p.cycleS = append(p.cycleS, cyc.wall.Seconds())
	}
	ms, sum := refKernel(r.ref)
	r.refSum ^= sum // keeps the pass from being optimised away
	p.refMS = append(p.refMS, ms)
	return nil
}

// verify decodes one reply and books it: anything but HTTP 200 with the
// golden result is a failure. Every attempt's latency is kept, so a fast
// refusal cannot hide: failures show in ok_share, which has no slack.
func (r *runner) verify(p *phase, c int, s sample) {
	p.attempted++
	p.latMS = append(p.latMS, float64(s.latency)/1e6)
	fail := func(why string) {
		p.failed++
		if p.firstFailure == "" {
			p.firstFailure = fmt.Sprintf("%s: %s", r.clients[c].templates[s.tmpl].Name, why)
		}
	}
	if s.err != nil {
		fail(s.err.Error())
		return
	}
	if s.status != http.StatusOK {
		fail(fmt.Sprintf("HTTP %d: %s", s.status, bytes.TrimSpace(s.body)))
		return
	}
	var resp response
	if err := json.Unmarshal(s.body, &resp); err != nil {
		fail("undecodable reply: " + err.Error())
		return
	}
	if !reflect.DeepEqual(resp.result, r.golden[c][s.tmpl]) {
		fail(fmt.Sprintf("result differs from golden: got %d rows %v, want %d rows %v",
			len(resp.Rows), firstRow(resp.Rows), len(r.golden[c][s.tmpl].Rows), firstRow(r.golden[c][s.tmpl].Rows)))
		return
	}
	p.respBytes += int64(len(s.body))
	p.modes[resp.PlanMode]++
	p.queueUS = append(p.queueUS, resp.QueueMS*1e3)
	p.overheadUS = append(p.overheadUS, float64(s.latency)/1e3-resp.WallMS*1e3-resp.QueueMS*1e3)
}

func firstRow(rows [][]string) []string {
	if len(rows) == 0 {
		return nil
	}
	return rows[0]
}

// measure runs the untimed warm-up (5 % of the count), a forced GC, and
// the measured windows.
func (r *runner) measure(ctx context.Context) (*phase, error) {
	n := r.w.windowRequests(r.bed.scale)
	warm := (n*numWindows + 19) / 20
	if err := r.window(ctx, warm, nil); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	runtime.GC()
	p := &phase{modes: map[string]int{}, counters: map[string]float64{}}
	for k := 0; k < numWindows; k++ {
		if r.w.cycles {
			// A new day: yesterday's rows land, analysts start at 10:00.
			// Appends and goldens sit between windows, outside the clock.
			if err := r.bed.appendDay(appendRows / r.bed.scale); err != nil {
				return nil, err
			}
			r.bed.sys.AdvanceClock(10 * time.Hour)
			if err := r.refreshGoldens(ctx); err != nil {
				return nil, err
			}
		}
		if err := r.window(ctx, n, p); err != nil {
			return nil, fmt.Errorf("window %d: %w", k, err)
		}
		if r.w.cycles {
			// Midnight falls between windows, not where the cycle starts:
			// a simulated day is then exactly one window's mix on every
			// seed. The predictor sees per-day path counts; split by a cut
			// inside a shuffled window they differ from seed to seed, and
			// with them the candidates, the selection and the work.
			r.bed.sys.AdvanceToMidnight()
		}
	}
	return p, nil
}

// snapshot flattens the system's public counters into one map: obs counters
// by series name, histograms as _count and _sum, and the dfs IO stats.
func (r *runner) snapshot() map[string]float64 {
	s := r.bed.sys.Obs().Snapshot()
	out := make(map[string]float64, len(s.Counters)+2*len(s.Histograms)+2)
	for k, v := range s.Counters {
		out[k] = float64(v)
	}
	for k, h := range s.Histograms {
		out[k+"_count"] = float64(h.Count)
		out[k+"_sum"] = float64(h.Sum)
	}
	io := r.bed.sys.Warehouse().FS().Stats()
	out["dfs_bytes_read"] = float64(io.BytesRead)
	out["dfs_opens"] = float64(io.Opens)
	return out
}

func rusageMS(ru syscall.Rusage) float64 {
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e3 + float64(t.Usec)/1e3 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// refKernelBytes sizes the reference kernel: one FNV-1a pass over 24 MB,
// the same work on every call. Its time says how fast the machine was
// between two windows; it is reported, never used to rescale a result.
const refKernelBytes = 24 << 20

func refKernel(buf []byte) (ms float64, sum uint64) {
	start := time.Now()
	h := uint64(14695981039346656037)
	for _, b := range buf {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return float64(time.Since(start)) / 1e6, h
}

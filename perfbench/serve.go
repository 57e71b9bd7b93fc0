package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rfidsched/internal/deploy"
	"rfidsched/internal/randx"
	"rfidsched/internal/serve"
	"rfidsched/internal/stats"
)

// serve-mix: an open loop with Poisson arrivals at mixRate. A rate sweep
// on a 2-CPU host (README.md, "Rate sweep") kept p99 near 50 ms up to 1000
// req/s, saw it rise from 1300 and break at 2000 req/s (p99 185 ms, 10% SLO
// misses, 1.8 CPUs busy); at 2500 the queue refused requests. Half of that
// saturation, 1000 req/s, was tried first: there the load amplifies the
// host's noise, and five seeds' p50 spread 0.57 of its median. At 600 req/s
// (30% of saturation, 0.55 CPUs busy) it spread 0.06. The hot pool (deploy
// seeds 1 to hotPool, and the paper deployment inline) is the same for
// every run seed, like a site's popular deployments; warming it is most of
// set-up, whose cost would otherwise swing 2x with the seed. The seed draws
// the arrivals, which hot entry each one repeats, and the cold uniques.
const (
	mixRate  = 600.0
	mixLimit = 50 * time.Millisecond
	hotPool  = 16
)

// The serve-mix class shares, indexed like classNames. They are assumed,
// not taken from traffic: the repository has no request logs. The
// assumption is a service whose sites re-request a few deployments most
// of the time (hot, and inline for a site that uploads its own geometry),
// with a minority of new deployments (cold), some callers that need an
// answer by a deadline and skip the cache, and a few broken clients.
var mixShares = []float64{0.60, 0.08, 0.17, 0.10, 0.05, 0}

// serve-burst: every burstPeriod, burstSize requests at once. burstCopies
// of them are copies of one fresh slow instance (an alg2 one-shot on a
// relabelled 120x2400 deployment of deploy seed burstDeploySeed, about
// 70 ms), the rest distinct cold alg1 MCS requests. The copies are a fifth,
// not half: the median then falls inside the cold requests' latencies
// instead of in the gap between them and the coalesced copies, where it
// jumps from run to run, and the p95 tail falls inside the copies'. (The
// large instance's solve time also drifts by up to 50% with the host's
// load, the small ones' by about 25%.) The shape is assumed, not taken
// from traffic: burstPeriod is about three times the p95 latency of a
// burst, so each drains before the next, and burstSize keeps the queue
// depth (at most 4 seen) far below serve's default QueueDepth of 64, so
// nothing is refused. Generator seeds are not used for
// the slow instance because its cost spans 1 ms to 1.4 s across seeds;
// seed 37 costs 50-80 ms under every relabelling tried. The tail is p95,
// not p99: a burst arrives at once, so one stall delays 20 requests
// together and p99 would rest on one or two bursts.
const (
	burstPeriod     = 250 * time.Millisecond
	burstSize       = 20
	burstCopies     = 4
	burstLimit      = 250 * time.Millisecond
	burstDeploySeed = 37
	burstTail       = 0.95
)

const (
	// A run whose median generator lag (dispatch - due) exceeds
	// lagFraction of the latency limit fell behind its schedule and is
	// invalid. The lag p99 is reported but not held to a limit: it is Go
	// scheduler delay (with both Ps busy a woken goroutine waits for the
	// running ones' time slices), and latency is timed from the due instant,
	// so a late dispatch can only make latency read worse, never better.
	lagFraction = 0.1
	// drainTimeout bounds the wait for stragglers after the last arrival.
	drainTimeout = 60 * time.Second
	// probeDeployments cold deployments feed a serve workload's solver
	// probe; probeRepeat is when mcs-paper's serve probe repeats its requests.
	probeDeployments = 4
	probeRepeat      = 300 * time.Millisecond
	// serveSetups set-ups give setup_s its median; one takes 25-180 ms, so
	// a single one is mostly noise.
	serveSetups = 21
	// A traced run alternates between an untraced and a traced server every
	// traceSegment of the arrival schedule, so the host's drift over the run
	// hits both alike. It is a whole number of burst periods.
	traceSegment = 10 * burstPeriod
	// warmGenSeed is the generator seed of the cold warm-up requests: fixed,
	// so set-up costs the same for every run seed, and above the hot pool's.
	warmGenSeed = 1000
)

const (
	clsHot = iota
	clsInline
	clsCold
	clsDeadline
	clsMalformed
	clsCoalesce
)

// malformedBodies must each get a 400.
var malformedBodies = [][]byte{
	[]byte(`{"generator":{"seed":1,"readers":50`),
	[]byte(`{"generator":{"seed":1,"readers":50,"tags":1200},"algorithm":"alg9"}`),
	[]byte(`{"generator":{"seed":1,"readers":50,"tags":1200},"bogus":true}`),
	[]byte(`{"generator":{"seed":1,"readers":-5,"tags":1200}}`),
	[]byte(`{"algorithm":"alg1"}`),
}

// arrival is one pre-built request of the open loop.
type arrival struct {
	at    time.Duration // due, from the start of the measured phase
	class int
	body  []byte
	want  int // expected status
	ref   int // index into the warmed pool whose result must be repeated, or -1
	group int // requests of one group must return identical results, or -1
	gen   *serve.Generator
}

// serveInputs is everything a serve workload sends, drawn from the seed.
type serveInputs struct {
	name     string
	limit    time.Duration
	tailQ    float64 // the quantile reported as tail_ms
	offered  string
	pool     [][]byte  // warmed before measuring; arrivals refer to them by index
	warm     []arrival // one untimed warm-up pass
	arrivals []arrival // in due order
}

func marshalRequest(req serve.Request) []byte {
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // a serve.Request of plain fields always marshals
	}
	return b
}

// smallGenerator is a paper-setting generator spec (50 readers x 1200
// tags) with its own deployment seed.
func smallGenerator(seed uint64) *serve.Generator {
	return &serve.Generator{Seed: seed, Readers: 50, Tags: 1200, Side: 100, LambdaR: 12, LambdaSmallR: 5}
}

// coldRequest is the k-th distinct cold request: a fresh deployment, all
// five algorithms in turn, two thirds MCS and one third one-shot.
func coldRequest(genSeed uint64, k int) arrival {
	g := smallGenerator(genSeed)
	mode := serve.ModeMCS
	if (k/len(allAlgs))%3 == 2 {
		mode = serve.ModeOneShot
	}
	body := marshalRequest(serve.Request{Generator: g, Algorithm: allAlgs[k%len(allAlgs)], Mode: mode, Seed: 7})
	return arrival{class: clsCold, body: body, want: http.StatusOK, ref: -1, group: -1, gen: g}
}

func buildMix(cfg runConfig, window time.Duration) (*serveInputs, error) {
	inline, err := paperDeployment(paperDeploySeed)
	if err != nil {
		return nil, err
	}
	rng := randx.NewStream(cfg.seed, 1)
	in := &serveInputs{name: "serve-mix", limit: mixLimit, tailQ: 0.99,
		offered: fmt.Sprintf("Poisson %.0f req/s", cfg.rate)}
	hotAlgs := []string{"alg1", "alg2", "ghc", "colorwave"}
	var deadline [][]byte
	for i := 0; i < hotPool; i++ {
		req := serve.Request{Generator: smallGenerator(uint64(i + 1)), Algorithm: hotAlgs[i%len(hotAlgs)], Seed: 7}
		in.pool = append(in.pool, marshalRequest(req))
		req.DeadlineMS = 10000
		deadline = append(deadline, marshalRequest(req))
	}
	in.pool = append(in.pool, marshalRequest(serve.Request{Deployment: inline, Algorithm: "ghc"}))

	cold, malformed := 0, 0
	next := func(class int) arrival {
		switch class {
		case clsHot:
			ref := rng.Intn(hotPool)
			return arrival{class: clsHot, body: in.pool[ref], want: http.StatusOK, ref: ref, group: -1}
		case clsInline:
			return arrival{class: clsInline, body: in.pool[hotPool], want: http.StatusOK, ref: hotPool, group: -1}
		case clsCold:
			cold++
			return coldRequest(rng.Uint64(), cold-1)
		case clsDeadline:
			ref := rng.Intn(hotPool)
			return arrival{class: clsDeadline, body: deadline[ref], want: http.StatusOK, ref: ref, group: -1}
		default:
			malformed++
			return arrival{class: clsMalformed, body: malformedBodies[malformed%len(malformedBodies)],
				want: http.StatusBadRequest, ref: -1, group: -1}
		}
	}
	in.warm = []arrival{coldRequest(warmGenSeed, 0),
		{class: clsDeadline, body: deadline[0], want: http.StatusOK, ref: 0, group: -1},
		{class: clsMalformed, body: malformedBodies[0], want: http.StatusBadRequest, ref: -1, group: -1}}
	for at := time.Duration(0); ; {
		at += seconds(rng.Exponential(cfg.rate))
		if at >= window {
			break
		}
		a := next(pickClass(rng, mixShares))
		a.at = at
		in.arrivals = append(in.arrivals, a)
	}
	return in, nil
}

func pickClass(rng *randx.RNG, shares []float64) int {
	u := rng.Float64()
	for c, s := range shares {
		if u < s {
			return c
		}
		u -= s
	}
	return clsHot
}

func buildBurst(cfg runConfig, window time.Duration) (*serveInputs, error) {
	base, err := paperDeployment(burstDeploySeed)
	if err != nil {
		return nil, err
	}
	rng := randx.NewStream(cfg.seed, 2)
	in := &serveInputs{name: "serve-burst", limit: burstLimit, tailQ: burstTail,
		offered: fmt.Sprintf("%d requests every %v", burstSize, burstPeriod)}
	slow := func() []byte {
		return marshalRequest(serve.Request{Deployment: relabel(base, rng), Algorithm: "alg2", Mode: serve.ModeOneShot})
	}
	coldAlg1 := func(genSeed uint64) arrival {
		g := smallGenerator(genSeed)
		return arrival{class: clsCold, want: http.StatusOK, ref: -1, group: -1, gen: g,
			body: marshalRequest(serve.Request{Generator: g, Algorithm: "alg1"})}
	}
	// The warm-up requests are the same for every seed: the unrelabelled
	// slow instance and a fixed cold one.
	in.warm = []arrival{{class: clsCoalesce, want: http.StatusOK, ref: -1, group: -1,
		body: marshalRequest(serve.Request{Deployment: base, Algorithm: "alg2", Mode: serve.ModeOneShot})},
		coldAlg1(warmGenSeed)}
	for k := 0; time.Duration(k)*burstPeriod < window; k++ {
		at := time.Duration(k) * burstPeriod
		copyBody := slow()
		for j := 0; j < burstSize; j++ {
			a := arrival{at: at, class: clsCoalesce, body: copyBody, want: http.StatusOK, ref: -1, group: k}
			if j*burstCopies%burstSize >= burstCopies { // spreads the copies through the burst
				a = coldAlg1(rng.Uint64())
				a.at = at
			}
			in.arrivals = append(in.arrivals, a)
		}
	}
	return in, nil
}

// phaseLog is an in-memory access-log handler: it keeps each request's
// outcome and phase breakdown by trace ID.
type phaseLog struct {
	mu   sync.Mutex
	reqs map[string]loggedRequest
}

type loggedRequest struct {
	outcome string
	phases  map[string]float64 // ms
}

func (l *phaseLog) Enabled(context.Context, slog.Level) bool { return true }
func (l *phaseLog) WithAttrs([]slog.Attr) slog.Handler       { return l }
func (l *phaseLog) WithGroup(string) slog.Handler            { return l }

func (l *phaseLog) Handle(_ context.Context, rec slog.Record) error {
	var id string
	lr := loggedRequest{phases: map[string]float64{}}
	rec.Attrs(func(a slog.Attr) bool {
		switch a.Key {
		case "trace":
			id = a.Value.String()
		case "outcome":
			lr.outcome = a.Value.String()
		case "phases":
			for _, p := range a.Value.Group() {
				if p.Value.Kind() == slog.KindFloat64 {
					lr.phases[strings.TrimSuffix(p.Key, "_ms")] = p.Value.Float64()
				}
			}
		}
		return true
	})
	l.mu.Lock()
	l.reqs[id] = lr
	l.mu.Unlock()
	return nil
}

// serveBench is one in-memory server with its warmed pool.
type serveBench struct {
	srv  *serve.Server
	h    http.Handler
	in   *serveInputs
	refs [][]byte  // the first result of every pool entry
	log  *phaseLog // nil when untraced
}

func (b *serveBench) close() { _ = b.srv.Drain(drainTimeout) }

// newServeBench starts a server, warms the pool, and runs the warm-up pass.
func newServeBench(in *serveInputs, traced bool) (*serveBench, error) {
	var opts serve.Options
	b := &serveBench{in: in}
	if traced {
		b.log = &phaseLog{reqs: map[string]loggedRequest{}}
		opts.AccessLog = slog.New(b.log)
	}
	b.srv = serve.NewServer(opts)
	b.h = b.srv.Handler()
	ctx := context.Background()
	for i, body := range in.pool {
		status, resp := b.do(ctx, body, "pool"+strconv.Itoa(i))
		raw, view, err := parseResult(resp)
		if status != http.StatusOK || err != nil || !view.Verified {
			b.close()
			return nil, fmt.Errorf("warming pool entry %d: status %d: %v", i, status, err)
		}
		b.refs = append(b.refs, raw)
	}
	for i, a := range in.warm {
		if status, _ := b.do(ctx, a.body, "warm"+strconv.Itoa(i)); status != a.want {
			b.close()
			return nil, fmt.Errorf("warm-up request %d: status %d, want %d", i, status, a.want)
		}
	}
	return b, nil
}

func (b *serveBench) do(ctx context.Context, body []byte, id string) (int, []byte) {
	req := httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(body)).WithContext(ctx)
	req.Header.Set(serve.TraceHeader, id)
	rec := httptest.NewRecorder()
	b.h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// outcome is what the generator saw of one request.
type outcome struct {
	status int
	body   []byte
	lag    time.Duration // dispatch - due
	lat    time.Duration // complete response - due
	done   bool
}

// servePhase is one measured open-loop phase: the arrivals in.arrivals[lo:hi]
// sent to one server.
type servePhase struct {
	lo, hi      int
	out         []outcome // indexed from lo
	inflightEnd int64
	counters    map[string]int64 // registry counter deltas over the phase
	depthMax    float64
}

var phaseCounters = []string{"serve.solves", "serve.singleflight.merged", "serve.rejected.queue_full",
	"serve.cache.hits", "serve.cache.misses"}

// runPhase dispatches in.arrivals[lo:hi] on their own goroutines, each at its
// due instant counted from the phase's start at from, and waits for all of
// them. window is the phase's length.
func (b *serveBench) runPhase(lo, hi int, from, window time.Duration, traced bool) *servePhase {
	arrivals := b.in.arrivals[lo:hi]
	ph := &servePhase{lo: lo, hi: hi, out: make([]outcome, len(arrivals)), counters: map[string]int64{}}
	reg := b.srv.Metrics()
	for _, c := range phaseCounters {
		ph.counters[c] = -reg.Counter(c).Value()
	}
	stopSampler := func() {}
	if traced {
		depth := reg.Gauge("serve.queue.depth")
		stop := make(chan struct{})
		sampled := make(chan struct{})
		go func() {
			defer close(sampled)
			tick := time.NewTicker(time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					if v := depth.Value(); v > ph.depthMax {
						ph.depthMax = v
					}
				}
			}
		}()
		stopSampler = func() { close(stop); <-sampled }
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	var inflight atomic.Int64
	start := time.Now()
	for i := range arrivals {
		due := start.Add(arrivals[i].at - from)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		ph.out[i].lag = time.Since(due)
		wg.Add(1)
		inflight.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			defer inflight.Add(-1)
			status, body := b.do(ctx, arrivals[i].body, "r"+strconv.Itoa(lo+i))
			ph.out[i].lat = time.Since(due)
			ph.out[i].status, ph.out[i].body = status, body
			ph.out[i].done = ctx.Err() == nil
		}(i, due)
	}
	time.Sleep(time.Until(start.Add(window)))
	ph.inflightEnd = inflight.Load()
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(drainTimeout):
		cancel()
		<-finished
	}
	stopSampler()
	for _, c := range phaseCounters {
		ph.counters[c] += reg.Counter(c).Value()
	}
	return ph
}

// resultView is the part of a serve.Result the checks read.
type resultView struct {
	Fingerprint string `json:"fingerprint"`
	Algorithm   string `json:"algorithm"`
	Mode        string `json:"mode"`
	Verified    bool   `json:"verified"`
	Slots       int    `json:"slots"`
	TagsRead    int    `json:"tags_read"`
	Schedule    []struct {
		TagsRead int `json:"tags_read"`
	} `json:"schedule"`
}

// parseResult returns the raw result of a 200 body and its decoded view.
func parseResult(body []byte) (json.RawMessage, resultView, error) {
	var env struct {
		Result json.RawMessage `json:"result"`
	}
	var v resultView
	if err := json.Unmarshal(body, &env); err != nil {
		return nil, v, err
	}
	if len(env.Result) == 0 || string(env.Result) == "null" {
		return nil, v, fmt.Errorf("response carries no result")
	}
	err := json.Unmarshal(env.Result, &v)
	return env.Result, v, err
}

// phaseStats is the checked outcome of the phases one server ran.
type phaseStats struct {
	sent       int
	lats       []float64   // ms, completed requests
	classLats  [][]float64 // ms per class
	lags       []float64   // ms
	failed     int
	sloMiss    int
	distinct   map[string]distinctResult
	solved     map[string]bool // distinct cacheable fingerprints that needed a solve
	inflight   int64           // still in flight at the end of a phase, summed
	counters   map[string]int64
	depthMax   float64
	phaseCount int
}

type distinctResult struct {
	raw  []byte
	view resultView
}

func newPhaseStats() *phaseStats {
	return &phaseStats{classLats: make([][]float64, len(classNames)), distinct: map[string]distinctResult{},
		solved: map[string]bool{}, counters: map[string]int64{}}
}

// check verifies every response of a phase and counts them into st and rep.
func (b *serveBench) check(ph *servePhase, st *phaseStats, rep *report) {
	groupRef := map[int][]byte{}
	for i := ph.lo; i < ph.hi; i++ {
		a, o := b.in.arrivals[i], ph.out[i-ph.lo]
		rep.attempted++
		st.sent++
		st.lags = append(st.lags, ms(o.lag))
		err := func() error {
			if !o.done {
				return fmt.Errorf("no response before the drain timeout")
			}
			if o.status != a.want {
				return fmt.Errorf("status %d, want %d", o.status, a.want)
			}
			if a.want != http.StatusOK {
				var e serve.ErrorBody
				if json.Unmarshal(o.body, &e) != nil || e.Error == "" {
					return fmt.Errorf("status %d without an error body", o.status)
				}
				return nil
			}
			raw, view, err := parseResult(o.body)
			switch {
			case err != nil:
				return err
			case !view.Verified:
				return fmt.Errorf("result not verified")
			case a.ref >= 0 && !bytes.Equal(raw, b.refs[a.ref]):
				return fmt.Errorf("result differs from the first response for fingerprint %.12s", view.Fingerprint)
			}
			if a.group >= 0 {
				if ref, ok := groupRef[a.group]; !ok {
					groupRef[a.group] = raw
				} else if !bytes.Equal(raw, ref) {
					return fmt.Errorf("coalesced copy differs from its burst's first response")
				}
			}
			if _, ok := st.distinct[view.Fingerprint]; !ok {
				st.distinct[view.Fingerprint] = distinctResult{raw: raw, view: view}
			}
			if a.class == clsCold || a.class == clsCoalesce {
				st.solved[view.Fingerprint] = true
			}
			return nil
		}()
		if o.done {
			st.lats = append(st.lats, ms(o.lat))
			st.classLats[a.class] = append(st.classLats[a.class], ms(o.lat))
		}
		if err != nil {
			st.failed++
			rep.fail("request %d (%s): %v", i, classNames[a.class], err)
		}
		if err != nil || o.lat > b.in.limit {
			st.sloMiss++
		}
	}
	st.inflight += ph.inflightEnd
	for c, v := range ph.counters {
		st.counters[c] += v
	}
	st.depthMax = max(st.depthMax, ph.depthMax)
	st.phaseCount++
}

// report notes the checked phases and, unlabelled, sets the latency,
// quality and memory metrics. It returns the latency median.
func (st *phaseStats) report(b *serveBench, rep *report, label string) (p50 float64) {
	in := b.in
	p50 = stats.Quantile(st.lats, 0.5)
	tail := stats.Quantile(st.lats, in.tailQ)
	rep.note("%s%s offered %s, latency limit %v, %d requests in %d phases, %d completed; latency from the due instant p50 %.4g ms, tail p%g %.4g ms (%d samples beyond it)",
		label, in.name, in.offered, in.limit, st.sent, st.phaseCount, len(st.lats), p50, 100*in.tailQ, tail, int(float64(len(st.lats))*(1-in.tailQ)))
	lagP50, lagP99 := stats.Quantile(st.lags, 0.5), stats.Quantile(st.lags, 0.99)
	rep.note("%sgenerator lag p50 %.4g ms p99 %.4g ms, in flight at the end %d, fail_ratio %.4g, slo_miss_ratio %.4g",
		label, lagP50, lagP99, st.inflight, ratio(float64(st.failed), float64(st.sent)), ratio(float64(st.sloMiss), float64(st.sent)))
	if lagP50 > lagFraction*ms(in.limit) {
		rep.invalidate("generator lag p50 %.4g ms exceeds %.2f of the %v latency limit", lagP50, lagFraction, in.limit)
	}
	for c, lats := range st.classLats {
		if len(lats) > 0 {
			rep.note("%sserve.class.%s.p50_ms %.4g p99_ms %.4g (n=%d)", label, classNames[c],
				stats.Quantile(lats, 0.5), stats.Quantile(lats, 0.99), len(lats))
		}
	}
	if label != "" {
		return p50 // a half of a traced run reports only the overhead
	}
	rep.set("p50_ms", p50, "ms")
	rep.set("tail_ms", tail, "ms")
	// Quality per distinct result, so it does not scale with how many
	// requests the seed's arrival draw happened to send.
	slots, firstTags := 0, 0
	byAlg := map[string][]string{}
	for fp, d := range st.distinct {
		slots += d.view.Slots
		if d.view.Mode == serve.ModeOneShot {
			firstTags += d.view.TagsRead
		} else if len(d.view.Schedule) > 0 {
			firstTags += d.view.Schedule[0].TagsRead
		}
		byAlg[d.view.Algorithm] = append(byAlg[d.view.Algorithm], fp)
	}
	n := float64(len(st.distinct))
	rep.set("slots", ratio(float64(slots), n), "count")
	rep.set("first_slot_tags", ratio(float64(firstTags), n), "count")
	rep.note("quality over %d distinct results: %d slots, %d first-slot tags", len(st.distinct), slots, firstTags)
	for _, alg := range sortedKeys(byAlg) {
		fps := byAlg[alg]
		sort.Strings(fps)
		h := sha256.New()
		for _, fp := range fps {
			h.Write(st.distinct[fp].raw)
		}
		rep.note("digest %s %s (%d distinct results)", alg, hex.EncodeToString(h.Sum(nil)), len(fps))
	}
	return p50
}

// reportLayers sets the per-layer metrics of a traced server's phases.
func (st *phaseStats) reportLayers(b *serveBench, rep *report) {
	byPhase := map[string][]float64{}
	deadlineSolves := 0
	for i, a := range b.in.arrivals {
		lr, ok := b.log.reqs["r"+strconv.Itoa(i)]
		if !ok {
			continue // sent to the untraced server
		}
		for p, v := range lr.phases {
			byPhase[p] = append(byPhase[p], v)
		}
		if a.class == clsDeadline && lr.outcome == "solved" {
			deadlineSolves++
		}
	}
	for _, p := range phases {
		if xs := byPhase[p]; len(xs) > 0 {
			rep.set("serve."+p+".p50_ms", stats.Quantile(xs, 0.5), "ms")
			rep.set("serve."+p+".p99_ms", stats.Quantile(xs, 0.99), "ms")
			rep.note("phase %s n=%d", p, len(xs))
		}
	}
	cnt := st.counters
	rep.set("serve.cache.hit_ratio", ratio(float64(cnt["serve.cache.hits"]), float64(cnt["serve.cache.hits"]+cnt["serve.cache.misses"])), "ratio")
	rep.set("serve.solves", float64(cnt["serve.solves"]), "count")
	rep.set("serve.singleflight.merged", float64(cnt["serve.singleflight.merged"]), "count")
	rep.set("serve.rejected.queue_full", float64(cnt["serve.rejected.queue_full"]), "count")
	rep.set("serve.queue.depth_max", st.depthMax, "count")
	cacheableSolves := cnt["serve.solves"] - int64(deadlineSolves)
	rep.set("serve.solve_useful_ratio", ratio(float64(len(st.solved)), float64(cacheableSolves)), "ratio")
	rep.note("solve_useful_ratio = %d distinct cacheable fingerprints / %d cacheable solves (%d solves, %d of them deadline requests)",
		len(st.solved), cacheableSolves, cnt["serve.solves"], deadlineSolves)
	rep.set("bench.gen_lag_p99_ms", stats.Quantile(st.lags, 0.99), "ms")
	rep.set("bench.inflight_end", float64(st.inflight), "count")
}

// coldDeployments generates the deployments of the first n cold requests,
// as the server expands their generators.
func coldDeployments(in *serveInputs, n int) ([]*deploy.Deployment, error) {
	var deps []*deploy.Deployment
	for _, a := range in.arrivals {
		if a.gen == nil || len(deps) == n {
			continue
		}
		sys, err := deploy.Generate(deploy.Config{Seed: a.gen.Seed, NumReaders: a.gen.Readers, NumTags: a.gen.Tags,
			Side: a.gen.Side, LambdaR: a.gen.LambdaR, LambdaSmallR: a.gen.LambdaSmallR})
		if err != nil {
			return nil, err
		}
		deps = append(deps, deploy.ToDeployment(sys))
	}
	if len(deps) == 0 {
		return nil, fmt.Errorf("%s sends no cold request", in.name)
	}
	return deps, nil
}

// serveLayers is the serve probe of mcs-paper: its deployments go through a
// traced in-memory server as ghc MCS requests (four copies at once, so
// three merge and wait, then one repeat that hits the cache) plus one
// malformed body, reported as the same per-layer metrics the serve
// workloads report.
func serveLayers(rep *report, deps []*deploy.Deployment) error {
	in := &serveInputs{name: "serve probe", limit: mixLimit, tailQ: 0.99, offered: "4 copies of each deployment at once, then a repeat"}
	var repeats []arrival
	for i, d := range deps {
		body := marshalRequest(serve.Request{Deployment: d, Algorithm: "ghc"})
		for k := 0; k < 4; k++ {
			in.arrivals = append(in.arrivals, arrival{class: clsCoalesce, body: body, want: http.StatusOK, ref: -1, group: i})
		}
		repeats = append(repeats, arrival{at: probeRepeat, class: clsHot, body: body, want: http.StatusOK, ref: -1, group: i})
	}
	in.arrivals = append(in.arrivals, repeats...)
	in.arrivals = append(in.arrivals, arrival{at: probeRepeat, class: clsMalformed, body: malformedBodies[0],
		want: http.StatusBadRequest, ref: -1, group: -1})
	b, err := newServeBench(in, true)
	if err != nil {
		return err
	}
	defer b.close()
	st := newPhaseStats()
	b.check(b.runPhase(0, len(in.arrivals), 0, 2*probeRepeat, true), st, rep)
	st.report(b, rep, "serve probe ")
	st.reportLayers(b, rep)
	return nil
}

func runServeMix(cfg runConfig, rep *report) error {
	return runServe(cfg, rep, buildMix)
}

func runServeBurst(cfg runConfig, rep *report) error {
	return runServe(cfg, rep, buildBurst)
}

func runServe(cfg runConfig, rep *report, build func(runConfig, time.Duration) (*serveInputs, error)) error {
	b, err := timeSetups(cfg, rep, serveSetups, func() (*serveBench, error) {
		in, err := build(cfg, cfg.measure)
		if err != nil {
			return nil, err
		}
		return newServeBench(in, false)
	})
	if err != nil {
		return err
	}
	if !cfg.trace {
		defer b.close()
		st := newPhaseStats()
		b.check(b.runPhase(0, len(b.in.arrivals), 0, cfg.measure, false), st, rep)
		st.report(b, rep, "")
		b.in.arrivals = nil // the benchmark's own request bodies are not the server's memory
		rep.set("heap_live_mb", heapLiveMB(), "MiB")
		return nil
	}
	// Traced: the arrival schedule alternates, segment by segment, between
	// the untraced server and a traced one with the same warmed pool.
	defer b.close()
	tb, err := newServeBench(b.in, true)
	if err != nil {
		return err
	}
	defer tb.close()
	plain, traced := newPhaseStats(), newPhaseStats()
	arrivals := b.in.arrivals
	lo := 0
	for seg := 0; time.Duration(seg)*traceSegment < cfg.measure; seg++ {
		from := time.Duration(seg) * traceSegment
		hi := lo
		for hi < len(arrivals) && arrivals[hi].at < from+traceSegment {
			hi++
		}
		if seg%2 == 0 {
			b.check(b.runPhase(lo, hi, from, traceSegment, false), plain, rep)
		} else {
			tb.check(tb.runPhase(lo, hi, from, traceSegment, true), traced, rep)
		}
		lo = hi
	}
	p50Plain := plain.report(b, rep, "untraced ")
	p50Traced := traced.report(tb, rep, "traced ")
	rep.set("bench.trace_overhead_pct", 100*(p50Traced-p50Plain)/p50Plain, "%")
	traced.reportLayers(tb, rep)
	n := float64(plain.sent + traced.sent)
	rep.set("bench.fail_ratio", ratio(float64(plain.failed+traced.failed), n), "ratio")
	rep.set("bench.slo_miss_ratio", ratio(float64(plain.sloMiss+traced.sloMiss), n), "ratio")
	deps, err := coldDeployments(b.in, probeDeployments)
	if err != nil {
		return err
	}
	solverLayers(cfg, rep, deps, 0) // serve requests carry workers = 0
	return nil
}

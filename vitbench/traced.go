package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"vitdyn/internal/costdb"
	"vitdyn/internal/engine"
	"vitdyn/internal/obs"
	"vitdyn/internal/rdd"
	"vitdyn/internal/serve"
)

// The traced run. It replays the requests the untraced daemon just
// served twice, in this process and one request at a time:
//
//  1. through an in-process serve.Server's Handler().ServeHTTP, timing
//     the handler and reading the caches' Stats() and the Go runtime's
//     counters around it;
//  2. through a composition of the same public functions the handler
//     calls — ResolveBackend, CatalogRequest.Seq,
//     engine.NewWithCache(...).CatalogFromSeq, CatalogResponseFor,
//     TraceSpec.Build, Catalog.Simulate*, JSON encoding — with timing
//     wrappers at each layer boundary (wrap.go).
//
// Both must reproduce the daemon: the handler's responses and the
// composition's encoded bodies equal the daemon's byte for byte, and
// their stream counters equal the daemon's /statsz.

// composer is the wrapped composition of the handler's work.
type composer struct {
	ctx     context.Context
	workers int
	store   *timedCache        // wraps the serve.Store
	db      *costdb.Persistent // mixed: durable tier over store
	dbClock *timedCache        // wraps db
	cache   engine.CostCache   // what every engine is given

	backends map[string]*layerClock // backend module → evaluations
	builds   buildClock

	mu       sync.Mutex // guards everything below (batch items build concurrently)
	stream   engine.StreamStats
	stages   engine.StageDurations
	wall     time.Duration // Σ CatalogFromSeq wall time
	capacity time.Duration // Σ wall time × workers
	encode   time.Duration
	trace    time.Duration // Σ TraceSpec.Build
	simulate time.Duration // Σ Catalog.Simulate*
	simFr    int64         // frames simulated, over every policy
	trFr     int64         // trace frames built
	flushMax time.Duration
	cats     map[string]*rdd.Catalog // canonical spec → built catalog
	bodies   map[string][]byte       // response key → encoded body
}

func newComposer(ctx context.Context, storeDir string) (*composer, time.Duration, error) {
	c := &composer{
		ctx:      ctx,
		workers:  serveWorkers(),
		store:    &timedCache{inner: serve.NewStore(0)},
		backends: map[string]*layerClock{"gpu": {}, "magnet": {}, "flops": {}, "other": {}},
		cats:     map[string]*rdd.Catalog{},
		bodies:   map[string][]byte{},
	}
	c.cache = c.store
	var open time.Duration
	if storeDir != "" {
		t := time.Now()
		db, err := costdb.Open(storeDir, c.store, costdb.Options{StaleEpoch: engine.StaleEpoch})
		if err != nil {
			return nil, 0, err
		}
		open = time.Since(t)
		c.db = db
		c.dbClock = &timedCache{inner: db}
		c.cache = c.dbClock
	}
	return c, open, nil
}

func (c *composer) close() error {
	if c.db != nil {
		return c.db.Close()
	}
	return nil
}

// responseKey identifies a response the way the daemon's response cache
// does for the generated requests: the exact target and body.
func responseKey(r request) string { return r.target + "\x00" + string(r.body) }

// do composes the daemon's work for one request: nothing when the same
// response was produced before (a response-cache hit), otherwise the
// catalog builds, replays and encoding the handler would run.
func (c *composer) do(r request) ([]byte, error) {
	key := responseKey(r)
	if body, ok := c.bodies[key]; ok {
		return body, nil
	}
	var v any
	switch r.kind {
	case kindCatalog, kindCold:
		resp, err := c.catalogResponse(r.specs[0], c.workers)
		if err != nil {
			return nil, err
		}
		v = resp
	case kindBatch, kindColdBatch:
		// The handler's split: up to fan items in flight, each sweeping
		// with workers/fan goroutines.
		fan := min(c.workers, len(r.specs))
		results := make([]serve.BatchResult, len(r.specs))
		err := engine.ForEachCtx(c.ctx, fan, len(r.specs), func(i int) error {
			resp, err := c.catalogResponse(r.specs[i], c.workers/fan)
			results[i] = serve.BatchResult{Catalog: &resp}
			return err
		})
		if err != nil {
			return nil, err
		}
		v = serve.BatchResponse{Results: results}
	case kindReplay, kindTrace:
		resp, err := c.replay(r.replay)
		if err != nil {
			return nil, err
		}
		v = resp
	default:
		return nil, fmt.Errorf("traced run: unknown request kind %q", r.kind)
	}
	t := time.Now()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.encode += time.Since(t)
	c.mu.Unlock()
	c.bodies[key] = buf.Bytes()
	if c.db != nil && (r.kind == kindColdBatch || r.kind == kindCold) {
		// A daemon flushes its WAL on a timer; flushing after every cold
		// request prices the flush each batch of appends costs.
		t := time.Now()
		if err := c.db.Flush(); err != nil {
			return nil, err
		}
		c.mu.Lock()
		c.flushMax = max(c.flushMax, time.Since(t))
		c.mu.Unlock()
	}
	return buf.Bytes(), nil
}

func (c *composer) catalogResponse(spec serve.CatalogRequest, workers int) (serve.CatalogResponse, error) {
	cat, name, unit, err := c.catalog(spec, workers)
	if err != nil {
		return serve.CatalogResponse{}, err
	}
	return serve.CatalogResponseFor(cat, name, unit), nil
}

// catalog returns the spec's catalog, building it through the wrapped
// pipeline unless an earlier request built it (a catalog-cache hit).
func (c *composer) catalog(spec serve.CatalogRequest, workers int) (*rdd.Catalog, string, string, error) {
	name, unit, err := backendInfo(spec.Backend)
	if err != nil {
		return nil, "", "", err
	}
	key := fmt.Sprintf("%s|%s|%s|%d|%s", spec.Family, defaultTo(spec.Dataset, "ADE"), defaultTo(spec.Variant, "Tiny"), spec.Step, name)
	c.mu.Lock()
	cat, ok := c.cats[key]
	c.mu.Unlock()
	if ok {
		return cat, name, unit, nil
	}
	b, err := serve.ResolveBackend(spec.Backend)
	if err != nil {
		return nil, "", "", err
	}
	model, seq, err := spec.Seq()
	if err != nil {
		return nil, "", "", err
	}
	eng := engine.NewWithCache(wrapBackend(b, c.backends[backendModule(name)]), workers, c.cache)
	var timings engine.StageTimings
	t := time.Now()
	cat, st, err := eng.CatalogFromSeq(c.ctx, model, c.builds.wrap(seq), engine.StreamOptions{Timings: &timings})
	wall := time.Since(t)
	if err != nil {
		return nil, "", "", err
	}
	d := timings.Durations()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cats[key] = cat
	c.stream.Add(st)
	c.stages.Generate += d.Generate
	c.stages.Prefilter += d.Prefilter
	c.stages.Cost += d.Cost
	c.stages.Frontier += d.Frontier
	c.wall += wall
	c.capacity += wall * time.Duration(workers)
	return cat, name, unit, nil
}

func defaultTo(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

// replay composes /v1/replay for one trace: the catalog, the trace on
// the catalog-relative budget scale, then every policy's simulation.
func (c *composer) replay(rr *serve.ReplayRequest) (serve.ReplayResponse, error) {
	cat, name, unit, err := c.catalog(rr.Catalog, c.workers)
	if err != nil {
		return serve.ReplayResponse{}, err
	}
	lo, hi := cat.DefaultBudgetScale()
	spec := rr.Trace.WithBudgetScale(lo, hi)
	t := time.Now()
	tr, err := spec.Build()
	build := time.Since(t)
	if err != nil {
		return serve.ReplayResponse{}, err
	}
	if _, err := cat.SelectStrict(tr.Max()); err != nil {
		return serve.ReplayResponse{}, err
	}
	names := rr.Policies
	if len(names) == 0 {
		names = []string{"dynamic", "static-full", "static-cheapest"}
	}
	pols := make([]serve.ReplayPolicyResult, len(names))
	t = time.Now()
	for i, p := range names {
		var res rdd.SimResult
		var pin string
		switch {
		case p == "dynamic":
			res = cat.Simulate(tr)
		case p == "static-full":
			res, pin = cat.SimulateStatic(cat.Full(), tr), cat.Full().Label
		case p == "static-cheapest":
			res, pin = cat.SimulateStatic(cat.Cheapest(), tr), cat.Cheapest().Label
		default:
			var k int
			if _, err := fmt.Sscanf(p, "dynamic-hysteresis:%d", &k); err != nil || k < 1 {
				return serve.ReplayResponse{}, fmt.Errorf("traced run: unsupported policy %q", p)
			}
			if k > 1 {
				res = cat.SimulateHysteresis(tr, k)
			} else {
				res = cat.Simulate(tr)
			}
		}
		pols[i] = serve.ReplayPolicyResult{Policy: p, Path: pin, Result: res,
			EffectiveAccuracy: res.EffectiveAccuracy(), SwitchRate: res.SwitchRate()}
	}
	sim := time.Since(t)
	frames := len(tr)
	rdd.RecycleTrace(tr)
	c.mu.Lock()
	c.trace += build
	c.simulate += sim
	c.trFr += int64(frames)
	c.simFr += int64(frames * len(names))
	c.mu.Unlock()
	return serve.ReplayResponse{Model: cat.Model, Backend: name, Unit: unit, Paths: len(cat.Paths),
		Results: []serve.ReplayTraceResult{{Trace: spec, Frames: frames, Policies: pols}}}, nil
}

// composerCounters is a snapshot of every composition counter, so the
// measured phase can be reported as a delta over set-up.
type composerCounters struct {
	stream          engine.StreamStats
	stages          engine.StageDurations
	wall, encode    time.Duration
	capacity        time.Duration
	trace, simulate time.Duration
	simFr, trFr     int64
	build           clockReading
	layers          int64
	solo, soloB     int64
	storeT, storeC  clockReading
	dbT, dbC        clockReading
	appends         int64
	backends        map[string]clockReading
}

func (c *composer) snapshot() composerCounters {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := composerCounters{
		stream: c.stream, stages: c.stages, wall: c.wall, encode: c.encode, capacity: c.capacity,
		trace: c.trace, simulate: c.simulate, simFr: c.simFr, trFr: c.trFr,
		build: c.builds.clock.read(), layers: c.builds.layers.Load(),
		solo: c.builds.solo.Load(), soloB: c.builds.soloB.Load(),
		storeT: c.store.total.read(), storeC: c.store.compute.read(),
		backends: map[string]clockReading{},
	}
	if c.db != nil {
		s.dbT, s.dbC = c.dbClock.total.read(), c.dbClock.compute.read()
		s.appends = c.db.Stats().Appends
	}
	for m, clk := range c.backends {
		s.backends[m] = clk.read()
	}
	return s
}

// runtimeCounters are the Go runtime's allocation and GC counters.
type runtimeCounters struct {
	alloc, cycles uint64
	pauses        *metrics.Float64Histogram
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/sched/pauses/total/gc:seconds"},
	}
	metrics.Read(s)
	h := s[2].Value.Float64Histogram()
	return runtimeCounters{alloc: s[0].Value.Uint64(), cycles: s[1].Value.Uint64(),
		pauses: &metrics.Float64Histogram{Counts: append([]uint64(nil), h.Counts...), Buckets: h.Buckets}}
}

// pauseQuantile returns the q-quantile of the GC pauses between two
// readings, in ms: the upper edge of the histogram bucket holding it
// (0 when no pause happened).
func pauseQuantile(a, b runtimeCounters, q float64) float64 {
	var total uint64
	counts := make([]uint64, len(b.pauses.Counts))
	for i := range counts {
		counts[i] = b.pauses.Counts[i] - a.pauses.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	var cum uint64
	for i, n := range counts {
		cum += n
		if float64(cum) >= q*float64(total) {
			edge := b.pauses.Buckets[i+1]
			if edge > 1e9 { // +Inf: report the finite lower edge
				edge = b.pauses.Buckets[i]
			}
			return edge * 1000
		}
	}
	return 0
}

// handlerPass serves the set-up and then the measured requests through
// an in-process server's handler, one at a time, and returns each
// measured response and handler time.
type handlerPass struct {
	setupBodies [][]byte
	sums        []uint32 // CRC-32C of each measured response
	statuses    []int
	handlerUS   []float64
	resp, cat   [2]int64 // measured-phase response/catalog cache hits, misses
	rt0, rt1    runtimeCounters
	stream      engine.StreamStats
}

func runHandlerPass(storeDir string, setup, reqs []request) (*handlerPass, error) {
	store := serve.NewStore(0)
	opts := serve.Options{Store: store, AccessLog: obs.NewAccessLogger(io.Discard, obs.TextFormat)}
	if storeDir != "" {
		db, err := costdb.Open(storeDir, store, costdb.Options{StaleEpoch: engine.StaleEpoch})
		if err != nil {
			return nil, err
		}
		defer db.Close()
		opts.DB = db
	}
	srv := serve.NewServer(opts)
	h := srv.Handler()
	w := &recorder{h: http.Header{}}
	p := &handlerPass{}
	for _, r := range setup {
		h.ServeHTTP(w, newHTTPRequest(r))
		p.setupBodies = append(p.setupBodies, append([]byte(nil), w.body.Bytes()...))
		w.reset()
	}
	// Requests are built before the measured loop, so the runtime's
	// allocation counters see the server's allocations, not these.
	hreqs := make([]*http.Request, len(reqs))
	for i, r := range reqs {
		hreqs[i] = newHTTPRequest(r)
	}
	p.handlerUS = make([]float64, 0, len(reqs))
	p.statuses = make([]int, 0, len(reqs))
	p.sums = make([]uint32, 0, len(reqs))
	rs0, cs0 := srv.RespCache().Stats(), srv.CatalogCache().Stats()
	p.rt0 = readRuntime()
	for _, hr := range hreqs {
		t := time.Now()
		h.ServeHTTP(w, hr)
		p.handlerUS = append(p.handlerUS, float64(time.Since(t))/float64(time.Microsecond))
		p.statuses = append(p.statuses, w.code)
		p.sums = append(p.sums, crc(w.body.Bytes()))
		w.reset()
	}
	p.rt1 = readRuntime()
	rs1, cs1 := srv.RespCache().Stats(), srv.CatalogCache().Stats()
	p.resp = [2]int64{rs1.Hits - rs0.Hits, rs1.Misses - rs0.Misses}
	p.cat = [2]int64{cs1.Hits - cs0.Hits, cs1.Misses - cs0.Misses}
	p.stream = srv.StreamStats()
	sort.Float64s(p.handlerUS)
	return p, nil
}

func newHTTPRequest(r request) *http.Request {
	method := http.MethodGet
	if r.body != nil {
		method = http.MethodPost
	}
	return httptest.NewRequest(method, r.target, bytes.NewReader(r.body))
}

// recorder is a reusable http.ResponseWriter for the handler pass.
type recorder struct {
	h    http.Header
	code int
	body bytes.Buffer
}

func (w *recorder) Header() http.Header { return w.h }

func (w *recorder) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *recorder) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.body.Write(b)
}

func (w *recorder) reset() {
	clear(w.h)
	w.code = 0
	w.body.Reset()
}

// traced is the traced run (see the package documentation).
func (r *runner) traced(ctx context.Context) (*result, error) {
	g := &gate{}
	if r.w.store {
		if err := r.prepareStore(); err != nil {
			return nil, err
		}
	}
	d, bodies, _, err := r.boot()
	if err != nil {
		return nil, err
	}
	refs, err := newReferences(r.tr.setup, bodies)
	if err != nil {
		d.kill()
		return &result{Correct: false, Attempted: len(r.tr.setup), Metrics: map[string]metric{}}, err
	}
	gen, err := newLoadGenerator(d.port)
	if err != nil {
		d.kill()
		return nil, err
	}
	parts, err := r.fixedPhase(gen, d)
	gen.close()
	if err != nil {
		d.kill()
		return nil, err
	}
	reqs, samples := flatten(parts)
	st := summarize(samples)
	daemonStream, err := d.streamCounters(ctx)
	if err != nil {
		d.kill()
		return nil, err
	}
	if err := d.stop(); err != nil {
		g.fail("%v", err)
	}
	refs.checkSamples(g, reqs, samples)
	r.logf("untraced phase: %d requests at %g/s, %d failed, p50 %.4f ms, lag p99 %.4f ms; daemon stream %+v",
		st.sent, r.w.rate, st.failed, quantile(st.latMS, 0.5), quantile(st.lagMS, 0.99), daemonStream)

	// Each replay gets its own copy of the prepared store.
	var hpStore, coStore string
	if r.store != "" {
		hpStore, coStore = filepath.Join(r.dir, "handler-store"), filepath.Join(r.dir, "composer-store")
		for _, dst := range []string{hpStore, coStore} {
			if err := copyDir(r.store, dst); err != nil {
				return nil, err
			}
		}
	}

	hp, err := runHandlerPass(hpStore, r.tr.setup, reqs)
	if err != nil {
		return nil, err
	}
	for i, b := range hp.setupBodies {
		if crc(b) != refs.sums[i] {
			g.fail("in-process handler: set-up %s differs from the daemon's response", r.tr.setup[i].target)
		}
	}
	for i, sum := range hp.sums {
		if hp.statuses[i] != 200 || (samples[i].ok() && sum != samples[i].sum) {
			g.fail("in-process handler: %s %s status %d, response differs from the daemon's", reqs[i].kind, reqs[i].target, hp.statuses[i])
		}
	}

	co, openT, err := newComposer(ctx, coStore)
	if err != nil {
		return nil, err
	}
	defer co.close()
	for i, rq := range r.tr.setup {
		body, err := co.do(rq)
		if err != nil {
			return nil, fmt.Errorf("traced set-up %s: %w", rq.target, err)
		}
		if !bytes.Equal(body, refs.bodies[i]) {
			g.fail("traced run: set-up %s differs from the daemon's response", rq.target)
		}
	}
	c0 := co.snapshot()
	walls := make([]float64, 0, len(reqs))
	for i, rq := range reqs {
		t := time.Now()
		body, err := co.do(rq)
		walls = append(walls, ms(time.Since(t)))
		if err != nil {
			return nil, fmt.Errorf("traced %s %s: %w", rq.kind, rq.target, err)
		}
		if samples[i].ok() && crc(body) != samples[i].sum {
			g.fail("traced run: %s %s %s differs from the daemon's response", rq.kind, rq.target, rq.body)
		}
	}
	c1 := co.snapshot()
	if err := co.close(); err != nil {
		return nil, err
	}

	// The counters the daemon's /statsz reports must come out the same
	// from both in-process replays: generated exactly; prefiltered and
	// costed within streamSlack of generated, because the admission
	// pre-filter sees candidates in the order concurrent workers reach
	// it. The frontiers themselves were compared byte for byte above.
	for _, s := range []struct {
		name string
		st   engine.StreamStats
	}{{"traced run", c1.stream}, {"in-process handler", hp.stream}} {
		slack := streamSlack * float64(daemonStream.Generated)
		if s.st.Generated != daemonStream.Generated ||
			math.Abs(float64(s.st.Prefiltered-daemonStream.Prefiltered)) > slack ||
			math.Abs(float64(s.st.Costed-daemonStream.Costed)) > slack {
			g.fail("%s stream %+v, daemon /statsz %+v", s.name, s.st, daemonStream)
		}
	}
	r.logf("stream counters: daemon %+v, traced run %+v, in-process handler %+v", daemonStream, c1.stream, hp.stream)

	n := float64(len(reqs))
	build := c1.build.sub(c0.build)
	storeT, storeC := c1.storeT.sub(c0.storeT), c1.storeC.sub(c0.storeC)
	storeSelf := storeT.ns - storeC.ns
	dbT, dbC := c1.dbT.sub(c0.dbT), c1.dbC.sub(c0.dbC)
	stages := engine.StageDurations{
		Generate:  c1.stages.Generate - c0.stages.Generate,
		Prefilter: c1.stages.Prefilter - c0.stages.Prefilter,
		Cost:      c1.stages.Cost - c0.stages.Cost,
		Frontier:  c1.stages.Frontier - c0.stages.Frontier,
	}
	handlerP50 := quantile(hp.handlerUS, 0.5)
	_, quietSamples := flatten(measured(parts))
	p50 := quantile(summarize(quietSamples).latMS, 0.5)
	m := map[string]metric{
		"loadgen.lag_p99_ms":               {quantile(st.lagMS, 0.99), "ms"},
		"loadgen.p50_ms":                   {p50, "ms"},
		"traced.inproc_wall_ms_p50":        {median(walls), "ms"},
		"serve.handler_us_p50":             {handlerP50, "us"},
		"serve.net_us_p50":                 {1000*p50 - handlerP50, "us"},
		"serve.resp_cache.hit_ratio":       {div(float64(hp.resp[0]), float64(hp.resp[0]+hp.resp[1])), "ratio"},
		"serve.catalog_cache.hit_ratio":    {div(float64(hp.cat[0]), float64(hp.cat[0]+hp.cat[1])), "ratio"},
		"serve.store.hit_ratio":            {div(float64(storeT.calls-storeC.calls), float64(storeT.calls)), "ratio"},
		"serve.store.self_us_per_req":      {us(storeSelf) / n, "us"},
		"serve.encode_us_per_req":          {us(int64(c1.encode-c0.encode)) / n, "us"},
		"core.generate_ms_per_req":         {ms(stages.Generate) / n, "ms"},
		"nn.build_us_per_graph":            {div(us(build.ns), float64(build.calls)), "us"},
		"nn.layers_per_graph":              {div(float64(c1.layers-c0.layers), float64(build.calls)), "count"},
		"nn.build_alloc_kb_per_graph":      {div(float64(c1.soloB-c0.soloB)/1024, float64(c1.solo-c0.solo)), "KB"},
		"engine.generated_per_req":         {float64(c1.stream.Generated-c0.stream.Generated) / n, "count"},
		"engine.prefiltered_per_req":       {float64(c1.stream.Prefiltered-c0.stream.Prefiltered) / n, "count"},
		"engine.costed_per_req":            {float64(c1.stream.Costed-c0.stream.Costed) / n, "count"},
		"engine.admitted_per_req":          {float64(c1.stream.Admitted-c0.stream.Admitted) / n, "count"},
		"engine.build_ms_per_req":          {ms(c1.wall-c0.wall) / n, "ms"},
		"engine.prefilter_self_ms_per_req": {ms(stages.Prefilter-time.Duration(build.ns)) / n, "ms"},
		"engine.parallel_efficiency":       {div(float64(stages.Total()), float64(c1.capacity-c0.capacity)), "ratio"},
		"pareto.frontier_ms_per_req":       {ms(stages.Frontier) / n, "ms"},
		"rdd.trace_build_us_per_req":       {us(int64(c1.trace-c0.trace)) / n, "us"},
		"rdd.simulate_ns_per_frame":        {div(float64(c1.simulate-c0.simulate), float64(c1.simFr-c0.simFr)), "ns"},
		"rdd.frames_per_req":               {float64(c1.trFr-c0.trFr) / n, "count"},
		"costdb.open_ms":                   {ms(openT), "ms"},
		"costdb.lookup_self_us_per_req":    {us(dbT.ns-dbC.ns-storeSelf) / n, "us"},
		"costdb.appends_per_req":           {float64(c1.appends-c0.appends) / n, "count"},
		"costdb.flush_ms_max":              {ms(co.flushMax), "ms"},
		"runtime.alloc_kb_per_req":         {float64(hp.rt1.alloc-hp.rt0.alloc) / 1024 / n, "KB"},
		"runtime.gc_cycles_per_req":        {float64(hp.rt1.cycles-hp.rt0.cycles) / n, "count"},
		"runtime.gc_pause_p99_ms":          {pauseQuantile(hp.rt0, hp.rt1, 0.99), "ms"},
	}
	for _, mod := range []string{"gpu", "magnet", "flops"} {
		e := c1.backends[mod].sub(c0.backends[mod])
		m[mod+".evals_per_req"] = metric{float64(e.calls) / n, "count"}
		m[mod+".us_per_eval"] = metric{div(us(e.ns), float64(e.calls)), "us"}
	}
	if r.store == "" {
		// Without a durable tier the costdb self time is meaningless.
		m["costdb.lookup_self_us_per_req"] = metric{0, "us"}
	}
	failed := st.failed
	return &result{Correct: g.ok(), Attempted: len(samples), Failed: failed, Metrics: m}, g.err()
}

// streamSlack bounds how far the order-dependent pre-filter counts of
// two builds of the same specs may differ, as a share of candidates
// generated.
const streamSlack = 0.01

func us(ns int64) float64 { return float64(ns) / 1e3 }

// div is a/b, or 0 when b is 0 (a layer the workload never reached).
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

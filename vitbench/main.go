// Command vitbench is the vitdyn benchmark: it measures the vitdynd
// serving daemon end to end from outside, and splits the cost layer by
// layer in a separate traced run, the way the paper profiles a ViT end
// to end and then per layer.
//
// Run it from the repository root (the script builds this package and
// cmd/vitdynd from source into .bench_build/ first):
//
//	bash vitbench/run.sh --workload mixed --seed 1 --seconds 45 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics. Earlier lines record the machine
// (nproc, GOMAXPROCS, Go version, commit) and each phase.
//
// # End-to-end run (--trace 0)
//
// Each run boots a fresh vitdynd process (default flags unless the
// workload says otherwise) on an ephemeral loopback port with fresh
// temporary directories, so caches, heap and VmHWM start equal. Set-up
// (exec → "listening on" → /healthz 200 → the workload's pre-fill
// requests) is repeated in fresh processes (five times; seven for cold,
// whose set-up is a few milliseconds) and setup_s is the median; the last
// process is measured. Load is open loop: request i of a phase is due at
// start + i/rate by absolute schedule, no arrival is dropped, and at
// most nproc keep-alive connections carry it, each driven by one OS
// thread with blocking system calls (nanosleep to the due time, then
// write and read), because the Go runtime's own timers and net/http's
// goroutine hand-offs add ~0.5 ms of generator noise. Latency runs from
// the due time to the last response byte, so time a request waits in the
// generator for a free connection counts against it; the generator's own
// timer overshoot on an idle connection does not (loadgen.lag_p99_ms
// reports it).
//
// A run offers the workload's fixed rate for all of --seconds. The
// machine is shared with other guests of its host, which take its CPU
// away in episodes of seconds to minutes (phase.go). Load is therefore
// offered in stretches of about a second, with the host's steal time
// read around each, and the metrics are taken over the stretches that
// lost less than 5% of the machine's CPU (or, when fewer than half did,
// over the least stolen half). Metrics:
//
//	setup_s         s      median set-up time (building the binaries excluded)
//	p50_ms          ms     median latency at the fixed rate
//	cpu_ms_per_req  ms     daemon user+sys CPU (/proc/<pid>/stat) over the
//	                       measured stretches ÷ requests they completed
//	peak_rss_mb     MB     daemon VmHWM at the end of the run
//
// Three metrics of the design are not reported, because on a shared
// 2-vCPU virtual machine (Linux, Go 1.24) they differ between runs of the
// same code by more than the largest bound a metric may have; the two
// percentiles are printed in the run log. The 99th percentile of
// sub-millisecond requests measures how fast the host wakes an idle vCPU
// — an idle thread's 1 ms sleep overshoots by 3.7 ms at the 99th
// percentile — and across ten quiet runs of one workload it ranged over a
// factor of 4.5 (warm 0.30–1.37 ms; mixed 3.0–7.2 ms, where a second's
// cold batch stalls the warm requests behind it). The 90th percentile's
// middle-half spread over ten runs was 0.08–0.17 of its median while the
// host was quiet and 0.34–1.01 while it was busy: a warm run in which
// every second lost 20–35% of the machine's CPU to other guests read
// 1.8 ms against ~0.25 ms, and in mixed the share of warm requests
// stalled behind a second's cold build sits near a tenth, so the 90th
// percentile of single seconds ranged from 0.25 to 40 ms within one quiet
// run. The highest offered rate that met a service level (p90 ≤ 50 ms,
// no failures, no growing backlog), searched with a ladder of one-second
// rungs above the fixed rate, moved by 14–30% of its median between runs:
// the daemon's capacity on that machine moves by ±15% from one second to
// the next (so does cpu_ms_per_req, stretch by stretch), and a pass/fail
// rung turns that into jumps of a whole rung. cpu_ms_per_req measures the
// same cost, averaged over the run.
//
// After the load, outside the timed phases, the correctness gate checks
// every response: status 200 and the expected shape; warm responses
// byte-identical to the set-up response for the same request; for a
// seeded sample of three cold specs, the served frontier equal to a
// direct engine.NewWithCache(backend, 1, fresh store).CatalogFromSeq
// build, labels, costs and accuracies bit for bit; each replay covering
// the requested frames over the catalog's frontier size, its dynamic
// policy completing as many frames as static-cheapest with an effective
// accuracy at least that of both static policies. The daemon is stopped
// with SIGTERM and must exit 0 after its "shut down; cost store served"
// line. Any failure makes the result correct=false and the exit code 1.
//
// # Workloads
//
// BENCHMARK.json lists replay and mixed. warm and cold run the same way
// but are left out of it. warm's p50 — about 0.1 ms, mostly system calls
// and wake-ups — followed the state of the shared 2-vCPU virtual machine's
// host more than any other metric: its median over ten seeds moved
// between 0.08 and 0.17 ms within two hours, and within one ten-seed set, as
// the host sped up run by run, its spread (quartile distance over median)
// reached 0.26, past the largest bound a metric may have, while replay's
// and mixed's stayed within 0.13. warm's requests are the same mix that
// makes up all but one request a second of mixed, where the traced run
// measures the fast-path layers. cold's fixed phase is whole blocks of 35
// requests at 3 req/s (three, 105 requests, at --seconds 45), and across
// ten seeds the spread of its latency percentiles (p50 0.29, p90 0.48 with
// 70-request phases, measured before stretches were chosen by steal time,
// and not measured again since) exceeded that bound too. The layers it
// exercises — graph build, pre-filter, pricing, frontier — are measured
// on mixed's cold batches. --workload warm and --workload cold still run,
// traced or not.
//
//	warm    1000 req/s; catalog GET : replay POST : batch POST = 4:1:1 over
//	        16 fixed specs (every family on gpu and magnet-time:E, two on
//	        flops and magnet-energy:E), all pre-filled in set-up. Why:
//	        nearly every request is a response-cache hit, so the pre-mux
//	        fast path, the keyed replay/batch cache path and the
//	        observability middleware do all the work; the engine none.
//	cold    3 req/s of GET /v1/catalog, each a spec the daemon has never
//	        seen: {SegFormer ADE, City} × step 64..512 and {Swin Tiny,
//	        Small, Base} × step 16..256 across all 28 backends. Specs come
//	        in blocks of 35 — every model at 7 evenly spaced steps — in a
//	        fixed cycle that keeps the heaviest builds apart, started at a
//	        seeded offset, each paired with the next backend of a seeded
//	        permutation and never repeated; the fixed phase is whole
//	        blocks (three, 105 requests, at --seconds 45), so every seed
//	        prices the same builds. Why: the response
//	        and catalog caches always miss, so the time is graph build,
//	        pre-filter, pricing and frontier: the cold path.
//	replay  200 req/s of POST /v1/replay against 8 catalogs built in set-up,
//	        each carrying a unique 20 000-frame bursty, sinusoid or step
//	        trace drawn from the seed; one in four adds a
//	        dynamic-hysteresis:k policy to the default three. Why: the
//	        response cache misses and the catalog cache hits, so time goes
//	        to trace generation, path selection, simulation and encoding;
//	        the engine is not touched.
//	mixed   the warm mix at 500 req/s plus, once per second of schedule, a
//	        POST /v1/batch of two never-seen cold specs at the middle of
//	        their models' step ranges (so every second's cold work is
//	        alike). The daemon runs with -store-path over a store an
//	        untimed daemon prepared by pricing the warm set before SIGTERM;
//	        setup_s includes loading it. Why: cache reads run beside cache
//	        writes, WAL write-through under costdb's lock and cold-build GC
//	        beside sub-millisecond hits; a gain for one that costs the
//	        other shows here.
//
// # Traced run (--trace 1)
//
// The traced run boots the daemon the same way (one set-up), serves the
// fixed-rate phase untraced, reads /statsz, and stops the daemon. It then
// replays the same set-up and measured requests in this process, one at
// a time: once through serve.NewServer(...).Handler().ServeHTTP, and once
// through a composition of the same public functions the handler calls
// (ResolveBackend, CatalogRequest.Seq, engine.CatalogFromSeq,
// CatalogResponseFor, TraceSpec.Build, Catalog.Simulate*, JSON encoding)
// with timing wrappers at every layer boundary. The program itself
// carries no tracing. The wrappers forward every optional interface the
// engine probes (FLOPsMonotone, Epocher, MultiCostBackend), so the
// traced work is the daemon's work: the run fails unless both replays
// reproduce every daemon response byte for byte and their stream
// counters match the daemon's /statsz — generated exactly, prefiltered
// and costed within 1% of generated. Those two, and admitted (not
// compared), depend on the order in which concurrent workers reach the
// admission pre-filter and the frontier, so two builds of one spec may
// differ by a few candidates; the frontiers themselves must be equal.
//
// Per-layer metrics cover the measured requests only (set-up excluded);
// "per_req" divides by their number. A layer a workload does not reach
// reads 0. Each row names the end-to-end metric it should move, and on
// which workload (for BENCHMARK.json, read "warm" as mixed's warm mix and
// "cold" as its cold batches):
//
//	loadgen.lag_p99_ms               send − due time; a validity check that
//	                                 must stay ≪ p50_ms                    all
//	loadgen.p50_ms                   the untraced daemon's p50 in this run  all
//	traced.inproc_wall_ms_p50        the composition's per-request wall
//	                                 time, in-process, next to it           all
//	serve.handler_us_p50             Handler().ServeHTTP       p50_ms, cpu  warm
//	serve.net_us_p50                 e2e p50 − handler p50 (loopback,
//	                                 net/http)                 p50_ms       warm
//	serve.resp_cache.hit_ratio       RespCache().Stats()       p50_ms, cpu  warm, mixed
//	serve.catalog_cache.hit_ratio    CatalogCache().Stats()    p50_ms       replay
//	serve.store.hit_ratio,
//	serve.store.self_us_per_req      the Store behind a timed CostCache
//	                                 (self = time − compute)   cpu, p50_ms  cold, mixed
//	serve.encode_us_per_req          JSON encode of the response  p50_ms    replay, cold
//	core.generate_ms_per_req         StageTimings.Generate     p50_ms       cold
//	nn.build_us_per_graph,
//	nn.layers_per_graph,
//	nn.build_alloc_kb_per_graph      timed Candidate.Build (nn, prune,
//	                                 graph); allocations only from builds
//	                                 no other build overlapped
//	                                           p50_ms, cpu, rss             cold
//	engine.{generated,prefiltered,
//	costed,admitted}_per_req         StreamStats               cpu          cold
//	engine.build_ms_per_req          CatalogFromSeq wall       p50_ms       cold
//	engine.prefilter_self_ms_per_req StageTimings.Prefilter − graph build   cold
//	engine.parallel_efficiency       Σ stage time ÷ (wall × workers)        cold
//	{gpu,magnet,flops}.evals_per_req,
//	{gpu,magnet,flops}.us_per_eval   timed CostBackend.Cost/CostVector,
//	                                 by backend module         p50_ms, cpu  cold
//	pareto.frontier_ms_per_req       StageTimings.Frontier     p50_ms       cold
//	rdd.trace_build_us_per_req       TraceSpec.Build           p50, p99     replay
//	rdd.simulate_ns_per_frame        Simulate/SimulateHysteresis/
//	                                 SimulateStatic, per frame per policy   replay
//	rdd.frames_per_req               trace frames built                     replay
//	costdb.open_ms                   costdb.Open               setup_s      mixed
//	costdb.lookup_self_us_per_req    timed Persistent.GetOrComputeVector,
//	                                 less the store and compute inside      mixed
//	costdb.appends_per_req           Stats().Appends           p99_ms       mixed
//	costdb.flush_ms_max              Flush after each cold request          mixed
//	runtime.alloc_kb_per_req,
//	runtime.gc_cycles_per_req,
//	runtime.gc_pause_p99_ms          runtime/metrics over the handler pass
//	                                                   cpu, p99_ms          cold, mixed
//
// # Not measured
//
// Gossip and /fleetz need a multi-daemon fleet and are left for a later
// benchmark. No accelerator hardware is involved: every cost is modelled
// (the GPU latency tables, the MAGNet simulator, the FLOPs proxy), and
// the models are not validated against real hardware, so the benchmark
// measures the serving system, not the paper's accelerators.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	daemon   string // vitdynd binary
	workdir  string // parent of the run's temporary directories
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var trace int
	fs := flag.NewFlagSet("vitbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "seed the workload's requests are drawn from")
	fs.IntVar(&cfg.seconds, "seconds", 45, "measured seconds per run")
	fs.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	fs.StringVar(&cfg.daemon, "daemon", ".bench_build/vitdynd", "vitdynd binary")
	fs.StringVar(&cfg.workdir, "workdir", ".bench_build/tmp", "directory for the run's temporary directories")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	cfg.trace = trace == 1
	res, err := run(context.Background(), cfg, os.Stdout)
	if res != nil {
		line, jerr := json.Marshal(res)
		if jerr != nil {
			fmt.Fprintf(os.Stderr, "vitbench: %v\n", jerr)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "vitbench: %v\n", err)
		os.Exit(1)
	}
}

// run executes one benchmark run. A correctness failure returns both
// the result (correct=false) and an error; a failure to measure returns
// no result.
func run(ctx context.Context, cfg config, out io.Writer) (*result, error) {
	w, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if cfg.seconds < 1 {
		return nil, errors.New("--seconds must be at least 1")
	}
	if _, err := os.Stat(cfg.daemon); err != nil {
		return nil, fmt.Errorf("vitdynd binary: %w", err)
	}
	fmt.Fprintf(out, "vitbench: workload=%s seed=%d seconds=%d trace=%v nproc=%d GOMAXPROCS=%d go=%s commit=%s\n",
		w.name, cfg.seed, cfg.seconds, cfg.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workdir, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := &runner{cfg: cfg, w: w, tr: newTraffic(w, cfg.seed), dir: dir, out: out}
	if cfg.trace {
		return r.traced(ctx)
	}
	return r.load(ctx)
}

// commit names the checked-out revision when the tree is a git
// checkout.
func commit() string {
	b, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown (not a git checkout)"
	}
	return strings.TrimSpace(string(b))
}

// serveWorkers is the daemon's default per-request worker budget.
func serveWorkers() int { return runtime.GOMAXPROCS(0) }

// runner holds one run's state.
type runner struct {
	cfg   config
	w     workload
	tr    *traffic
	dir   string
	out   io.Writer
	store string // prepared cost store (mixed)
	boots int
}

func (r *runner) logf(format string, args ...any) {
	fmt.Fprintf(r.out, "vitbench: "+format+"\n", args...)
}

// prepareStore has an untimed daemon price the set-up requests into a
// durable store, then stops it. Every later daemon of the run boots from
// its own copy.
func (r *runner) prepareStore() error {
	store := filepath.Join(r.dir, "prepared-store")
	d, bodies, _, err := r.boot("-store-path", store)
	if err != nil {
		return err
	}
	if err := d.stop(); err != nil {
		return err
	}
	if _, err := newReferences(r.tr.setup, bodies); err != nil {
		return err
	}
	r.store = store
	return nil
}

// boot starts a fresh daemon in a fresh directory and serves the set-up
// requests; it returns the set-up bodies and the time from exec to the
// last set-up response.
func (r *runner) boot(args ...string) (*daemon, [][]byte, time.Duration, error) {
	r.boots++
	dir := filepath.Join(r.dir, fmt.Sprintf("daemon-%d", r.boots))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, 0, err
	}
	if r.store != "" {
		dst := filepath.Join(dir, "store")
		if err := copyDir(r.store, dst); err != nil {
			return nil, nil, 0, err
		}
		args = append(args, "-store-path", dst)
	}
	t := time.Now()
	d, err := startDaemon(r.cfg.daemon, dir, args...)
	if err != nil {
		return nil, nil, 0, err
	}
	bodies, err := prefill(d.port, r.tr.setup)
	took := time.Since(t)
	if err != nil {
		d.kill()
		return nil, nil, 0, err
	}
	return d, bodies, took, nil
}

// prefill serves the set-up requests one at a time on one connection.
func prefill(port int, setup []request) ([][]byte, error) {
	c, err := dialHTTP(port, time.Minute)
	if err != nil {
		return nil, err
	}
	defer c.close()
	bodies := make([][]byte, len(setup))
	for i, req := range setup {
		status, body, err := c.do(req.raw)
		if err != nil {
			return nil, fmt.Errorf("set-up %s: %w", req.target, err)
		}
		if status != 200 {
			return nil, fmt.Errorf("set-up %s: status %d: %s", req.target, status, body)
		}
		bodies[i] = append([]byte(nil), body...)
	}
	return bodies, nil
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// fixedCount is the number of requests in the fixed-rate phase. Cold
// phases hold whole blocks of cold specs, so every run prices the same
// mix of builds.
func (r *runner) fixedCount() int {
	n := int(r.w.rate*float64(r.cfg.seconds) + 0.5)
	if block := len(coldModels) * coldGrid; r.w.name == "cold" && n >= block {
		n -= n % block
	}
	return max(n, 1)
}

// keepBody selects the responses the gate needs whole: every response
// without a set-up reference.
func keepBody(req request) bool { return !req.warm() }

func newLoadGenerator(port int) (*generator, error) {
	return newGenerator(port, runtime.NumCPU(), time.Minute, 30*time.Second)
}

// load is the end-to-end run.
func (r *runner) load(ctx context.Context) (*result, error) {
	g := &gate{}
	if r.w.store {
		if err := r.prepareStore(); err != nil {
			return nil, err
		}
	}
	var setups []float64
	var d *daemon
	var refs *references
	for k := 0; k < r.w.setups; k++ {
		dk, bodies, took, err := r.boot()
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		if k == 0 {
			if refs, err = newReferences(r.tr.setup, bodies); err != nil {
				g.fail("%v", err)
			}
		} else {
			for i := range bodies {
				if refs != nil && crc(bodies[i]) != refs.sums[i] {
					g.fail("set-up %s differs between daemons", r.tr.setup[i].target)
				}
			}
		}
		if k < r.w.setups-1 {
			if err := dk.stop(); err != nil {
				g.fail("%v", err)
			}
			continue
		}
		d = dk
	}
	r.logf("setup_s samples %v", setups)
	if refs == nil {
		d.kill()
		return &result{Correct: false, Attempted: len(r.tr.setup), Metrics: map[string]metric{}}, g.err()
	}

	gen, err := newLoadGenerator(d.port)
	if err != nil {
		d.kill()
		return nil, err
	}
	fixedParts, err := r.fixedPhase(gen, d)
	if err != nil {
		gen.close()
		d.kill()
		return nil, err
	}
	reqs, samples := flatten(fixedParts)
	quiet := measured(fixedParts)
	_, quietSamples := flatten(quiet)
	qs := summarize(quietSamples)
	var cpu time.Duration
	for _, p := range quiet {
		cpu += p.cpu
	}
	r.logf("fixed phase: %d stretches at %g/s, steal per stretch (* quiet): %s", len(fixedParts), r.w.rate, describe(fixedParts))
	r.logf("fixed phase over %d measured stretches: %d requests, %d failed, p50 %.4f ms, p90 %.4f ms, p99 %.4f ms, lag p99 %.4f ms, daemon CPU %v",
		len(quiet), qs.sent, qs.failed, quantile(qs.latMS, 0.5), quantile(qs.latMS, 0.9), quantile(qs.latMS, 0.99),
		quantile(qs.lagMS, 0.99), cpu)
	rss, rssErr := d.peakRSS()
	gen.close()
	if err := d.stop(); err != nil {
		g.fail("%v", err)
	}
	if rssErr != nil {
		return nil, rssErr
	}

	refs.checkSamples(g, reqs, samples)
	checkDirect(ctx, g, r.cfg.seed, reqs, samples)

	failed := 0
	for _, s := range samples {
		if !s.ok() {
			failed++
		}
	}
	res := &result{
		Correct:   g.ok(),
		Attempted: len(samples),
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":        {median(setups), "s"},
			"p50_ms":         {quantile(qs.latMS, 0.50), "ms"},
			"cpu_ms_per_req": {ms(cpu) / float64(max(qs.sent-qs.failed, 1)), "ms"},
			"peak_rss_mb":    {rss, "MB"},
		},
	}
	return res, g.err()
}

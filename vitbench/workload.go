package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"vitdyn/internal/rdd"
	"vitdyn/internal/serve"
)

// Request kinds. Warm kinds repeat a spec served in set-up and are
// checked against that set-up response; the others are unique.
const (
	kindCatalog   = "catalog"    // warm GET /v1/catalog
	kindReplay    = "replay"     // warm POST /v1/replay
	kindBatch     = "batch"      // warm POST /v1/batch
	kindCold      = "cold"       // GET /v1/catalog of a never-seen spec
	kindColdBatch = "cold-batch" // POST /v1/batch of never-seen specs
	kindTrace     = "trace"      // POST /v1/replay of a unique trace
)

// request is one generated request: the exact bytes sent, plus what the
// correctness gate and the traced run need to know about it.
type request struct {
	kind   string
	raw    []byte
	target string // path and query
	body   []byte // POST body; nil for GET
	ref    int    // warm kinds: index into the workload's reference table
	specs  []serve.CatalogRequest
	replay *serve.ReplayRequest // kindReplay and kindTrace
}

// warm reports whether the response must equal a set-up reference.
func (r request) warm() bool { return r.ref >= 0 }

// workload is one traffic mix. The fields are fixed per workload; only
// the request sequence depends on the seed.
type workload struct {
	name   string
	rate   float64 // fixed offered rate, req/s
	setups int     // daemons set up per run; setup_s is their median
	store  bool    // daemon runs with -store-path over a prepared store
}

var workloads = map[string]workload{
	"warm":   {name: "warm", rate: 1000, setups: 5},
	"cold":   {name: "cold", rate: 3, setups: 7},
	"replay": {name: "replay", rate: 200, setups: 5},
	"mixed":  {name: "mixed", rate: 500, setups: 5, store: true},
}

func workloadNames() []string { return []string{"warm", "cold", "replay", "mixed"} }

// warmSpecs is the fixed warm catalog set: every family the daemon
// serves, on the GPU model, the FLOPs proxy and accelerator E's time and
// energy models.
var warmSpecs = []serve.CatalogRequest{
	{Family: "segformer", Dataset: "ADE", Backend: "gpu"},
	{Family: "segformer", Dataset: "City", Backend: "gpu"},
	{Family: "swin", Variant: "Tiny", Backend: "gpu"},
	{Family: "ofa", Backend: "gpu"},
	{Family: "segformer-retrained", Dataset: "ADE", Backend: "gpu"},
	{Family: "swin-retrained", Backend: "gpu"},
	{Family: "segformer", Dataset: "ADE", Backend: "magnet-time:E"},
	{Family: "segformer", Dataset: "City", Backend: "magnet-time:E"},
	{Family: "swin", Variant: "Tiny", Backend: "magnet-time:E"},
	{Family: "ofa", Backend: "magnet-time:E"},
	{Family: "segformer-retrained", Dataset: "City", Backend: "magnet-time:E"},
	{Family: "swin-retrained", Backend: "magnet-time:E"},
	{Family: "segformer", Dataset: "ADE", Backend: "flops"},
	{Family: "swin", Variant: "Tiny", Backend: "flops"},
	{Family: "segformer", Dataset: "City", Backend: "magnet-energy:E"},
	{Family: "ofa", Backend: "magnet-energy:E"},
}

// replaySpecs are the catalogs the replay workload replays against:
// every family on the GPU model plus the two SegFormer datasets on
// accelerator E, so frontier sizes range from a handful of paths to ~80.
var replaySpecs = append(append([]serve.CatalogRequest{}, warmSpecs[:6]...), warmSpecs[6:8]...)

// Frame counts: warm replays are small (they are response-cache hits
// after set-up); replay-workload traces are the issue's 20 000 frames.
const (
	warmReplayFrames = 2000
	traceFrames      = 20000
	warmBatches      = 8
)

func catalogTarget(s serve.CatalogRequest) string {
	q := "family=" + s.Family
	if s.Dataset != "" {
		q += "&dataset=" + s.Dataset
	}
	if s.Variant != "" {
		q += "&variant=" + s.Variant
	}
	if s.Step != 0 {
		q += "&step=" + strconv.Itoa(s.Step)
	}
	return "/v1/catalog?" + q + "&backend=" + s.Backend
}

func catalogRequest(kind string, s serve.CatalogRequest, ref int) request {
	t := catalogTarget(s)
	return request{kind: kind, raw: renderGET(t), target: t, ref: ref, specs: []serve.CatalogRequest{s}}
}

func batchRequest(kind string, specs []serve.CatalogRequest, ref int) request {
	body, err := json.Marshal(serve.BatchRequest{Requests: specs})
	if err != nil {
		panic(err) // plain structs always marshal
	}
	return request{kind: kind, raw: renderPOST("/v1/batch", body), target: "/v1/batch", body: body, ref: ref, specs: specs}
}

func replayRequest(kind string, rr serve.ReplayRequest, ref int) request {
	body, err := json.Marshal(rr)
	if err != nil {
		panic(err) // plain structs always marshal
	}
	return request{kind: kind, raw: renderPOST("/v1/replay", body), target: "/v1/replay", body: body, ref: ref,
		specs: []serve.CatalogRequest{rr.Catalog}, replay: &rr}
}

// traffic generates one workload's requests from a seed: the set-up
// (pre-fill) requests, then an unbounded measured sequence read with
// next. The same seed always yields the same bytes.
type traffic struct {
	w      workload
	rng    *rand.Rand
	setup  []request // served before timing; warm requests reference them
	warm   []request // the warm mix's request table (indexes = ref)
	cold   *coldSpecs
	traces map[string]bool // replay: trace identities already drawn
}

func newTraffic(w workload, seed int64) *traffic {
	t := &traffic{w: w, rng: rand.New(rand.NewSource(seed))}
	switch w.name {
	case "warm", "mixed":
		t.warm = warmTable(t.rng)
		t.setup = t.warm
		if w.name == "mixed" {
			t.cold = newColdSpecs(t.rng, mixedGrid)
		}
	case "cold":
		t.cold = newColdSpecs(t.rng, coldGrid)
	case "replay":
		t.traces = map[string]bool{}
		for i, s := range replaySpecs {
			t.setup = append(t.setup, catalogRequest(kindCatalog, s, i))
		}
	}
	return t
}

// warmTable renders the warm mix's fixed request table: one catalog GET
// per warm spec, one small replay per warm spec, and warmBatches
// two-spec batches.
func warmTable(rng *rand.Rand) []request {
	var reqs []request
	for _, s := range warmSpecs {
		reqs = append(reqs, catalogRequest(kindCatalog, s, len(reqs)))
	}
	for _, s := range warmSpecs {
		reqs = append(reqs, replayRequest(kindReplay, serve.ReplayRequest{Catalog: s, Trace: randomTrace(rng, warmReplayFrames)}, len(reqs)))
	}
	for i := 0; i < warmBatches; i++ {
		reqs = append(reqs, batchRequest(kindBatch, []serve.CatalogRequest{warmSpecs[2*i], warmSpecs[2*i+1]}, len(reqs)))
	}
	return reqs
}

// randomTrace draws one budget trace: bursty, sinusoid or step, its
// shape parameter and (bursty) generator seed drawn from rng. Budgets
// are left on the catalog-relative default scale.
func randomTrace(rng *rand.Rand, frames int) *rdd.TraceSpec {
	switch rng.Intn(3) {
	case 0:
		return &rdd.TraceSpec{Kind: "bursty", Frames: frames, BusyFrac: 0.1 + 0.5*rng.Float64(), Seed: rng.Uint64() | 1}
	case 1:
		return &rdd.TraceSpec{Kind: "sinusoid", Frames: frames, Period: 50 + rng.Intn(4951)}
	default:
		return &rdd.TraceSpec{Kind: "step", Frames: frames, Stride: 10 + rng.Intn(991)}
	}
}

// take returns a phase's next n measured requests, to be offered at
// rate. In mixed, one request per second of schedule — the one due
// half-way through each second — is a cold batch.
func (t *traffic) take(n int, rate float64) []request {
	out := make([]request, n)
	perSecond := max(1, int(rate+0.5))
	for i := range out {
		switch t.w.name {
		case "cold":
			out[i] = catalogRequest(kindCold, t.cold.next(), -1)
		case "replay":
			out[i] = t.nextTrace()
		case "mixed":
			if i%perSecond == perSecond/2 {
				out[i] = batchRequest(kindColdBatch, []serve.CatalogRequest{t.cold.next(), t.cold.next()}, -1)
				continue
			}
			fallthrough
		default:
			out[i] = t.nextWarm()
		}
	}
	return out
}

// nextWarm draws from the warm mix: catalog GET : replay POST : batch
// POST = 4:1:1.
func (t *traffic) nextWarm() request {
	switch r := t.rng.Intn(6); {
	case r < 4:
		return t.warm[t.rng.Intn(len(warmSpecs))]
	case r == 4:
		return t.warm[len(warmSpecs)+t.rng.Intn(len(warmSpecs))]
	default:
		return t.warm[2*len(warmSpecs)+t.rng.Intn(warmBatches)]
	}
}

// nextTrace draws a replay of a trace no earlier request carried; one
// request in four adds a dynamic-hysteresis:k policy to the default
// three.
func (t *traffic) nextTrace() request {
	for {
		ci := t.rng.Intn(len(replaySpecs))
		tr := randomTrace(t.rng, traceFrames)
		var policies []string
		if t.rng.Intn(4) == 0 {
			policies = []string{"dynamic", "static-full", "static-cheapest", "dynamic-hysteresis:" + strconv.Itoa(2+t.rng.Intn(7))}
		}
		id := fmt.Sprintf("%d/%s/%d/%d/%v/%d/%s", ci, tr.Kind, tr.Period, tr.Stride, tr.BusyFrac, tr.Seed, strings.Join(policies, ","))
		if t.traces[id] {
			continue
		}
		t.traces[id] = true
		return replayRequest(kindTrace, serve.ReplayRequest{Catalog: replaySpecs[ci], Trace: tr, Policies: policies}, -1)
	}
}

// coldModel is one cold-spec family: a catalog family/variant and its
// channel-step range.
type coldModel struct {
	family, dataset, variant string
	minStep, maxStep         int
}

var coldModels = []coldModel{
	{family: "segformer", dataset: "ADE", minStep: 64, maxStep: 512},
	{family: "segformer", dataset: "City", minStep: 64, maxStep: 512},
	{family: "swin", variant: "Tiny", minStep: 16, maxStep: 256},
	{family: "swin", variant: "Small", minStep: 16, maxStep: 256},
	{family: "swin", variant: "Base", minStep: 16, maxStep: 256},
}

// Cold specs come from a grid: each cold model's step range holds
// evenly spaced grid steps, and a block visits every (model, step) cell
// once. The visiting order is a fixed cycle that never puts the two
// most expensive step bands of any model next to each other (so heavy
// builds rarely overlap), started at a seeded offset; each cell is paired
// with the next backend of a seeded backend permutation, and a spec
// never repeats. Every run of whole blocks therefore prices the same
// builds — the seed changes the order's phase and the backend pairing,
// not the amount of work — which keeps percentiles of a short phase
// comparable across seeds.
//
// cold uses 7 steps per model (a block of 35 requests, 64, 138, …, 512
// for SegFormer); mixed uses one step per model, the middle of its
// range, so each second's cold batch costs about the same and the warm
// tail measures the interference, not the luck of the draw.
const (
	coldGrid  = 7
	mixedGrid = 1
)

// coldSpecs draws never-seen cold catalog specs from {SegFormer
// ADE/City} × step 64..512 and {Swin Tiny/Small/Base} × step 16..256,
// across every servable backend.
type coldSpecs struct {
	grid     int
	backends []string
	next0    int // position in the cell cycle
	bi       int
	seen     map[serve.CatalogRequest]bool
}

func newColdSpecs(rng *rand.Rand, grid int) *coldSpecs {
	c := &coldSpecs{grid: grid, seen: map[serve.CatalogRequest]bool{}}
	for _, b := range serve.Backends() {
		c.backends = append(c.backends, b.Spec)
	}
	rng.Shuffle(len(c.backends), func(i, j int) { c.backends[i], c.backends[j] = c.backends[j], c.backends[i] })
	c.next0 = rng.Intn(c.block())
	return c
}

func (c *coldSpecs) block() int { return len(coldModels) * c.grid }

func (c *coldSpecs) next() serve.CatalogRequest {
	// Cell p of the cycle is (3p mod block): its step band is 3p mod
	// grid, so consecutive cells step three bands apart. 3 is coprime
	// with every block size used here.
	cell := 3 * c.next0 % c.block()
	c.next0 = (c.next0 + 1) % c.block()
	m := coldModels[cell/c.grid]
	step := m.minStep + (m.maxStep-m.minStep)/2
	if c.grid > 1 {
		step = m.minStep + cell%c.grid*(m.maxStep-m.minStep)/(c.grid-1)
	}
	for tries := 0; ; tries++ {
		// Once a cell has met every backend, nudge its step.
		s := serve.CatalogRequest{Family: m.family, Dataset: m.dataset, Variant: m.variant,
			Step: step + tries/len(c.backends), Backend: c.backends[c.bi%len(c.backends)]}
		c.bi++
		if !c.seen[s] {
			c.seen[s] = true
			return s
		}
	}
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"net/http"
	"time"

	"vitdyn/internal/engine"
	"vitdyn/internal/serve"
)

// gate collects correctness failures; every check runs outside the
// timed phases. A run with any failure reports correct=false and exits
// non-zero.
type gate struct {
	failures int
	msgs     []string
}

func (g *gate) fail(format string, args ...any) {
	g.failures++
	if len(g.msgs) < 10 {
		g.msgs = append(g.msgs, fmt.Sprintf(format, args...))
	}
}

func (g *gate) ok() bool { return g.failures == 0 }

func (g *gate) err() error {
	if g.ok() {
		return nil
	}
	return fmt.Errorf("%d correctness failures, first: %q", g.failures, g.msgs)
}

// decodeStrict decodes one JSON document, refusing unknown fields and
// trailing data.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after the JSON document")
	}
	return nil
}

// backendInfo resolves a backend spec to its served name and unit.
func backendInfo(spec string) (name, unit string, err error) {
	b, err := serve.ResolveBackend(spec)
	if err != nil {
		return "", "", err
	}
	for _, info := range serve.Backends() {
		if info.Name == b.Name() {
			return info.Name, info.Unit, nil
		}
	}
	return "", "", fmt.Errorf("backend %q missing from the backend table", spec)
}

// checkCatalog validates a catalog response's shape: the spec's backend
// and unit, and a non-empty Pareto frontier ordered cheapest first with
// strictly rising cost and accuracy.
func checkCatalog(resp serve.CatalogResponse, spec serve.CatalogRequest) error {
	name, unit, err := backendInfo(spec.Backend)
	if err != nil {
		return err
	}
	if resp.Model == "" || resp.Backend != name || resp.Unit != unit || resp.Trace != nil {
		return fmt.Errorf("catalog header %q/%q/%q, want model/%q/%q", resp.Model, resp.Backend, resp.Unit, name, unit)
	}
	if len(resp.Paths) == 0 {
		return fmt.Errorf("catalog %s has no paths", resp.Model)
	}
	for i, p := range resp.Paths {
		if p.Label == "" || !(p.Cost > 0) || math.IsInf(p.Cost, 0) || p.Accuracy < 0 || p.Accuracy > 1 {
			return fmt.Errorf("catalog %s path %d invalid: %+v", resp.Model, i, p)
		}
		if i > 0 && (p.Cost <= resp.Paths[i-1].Cost || p.Accuracy <= resp.Paths[i-1].Accuracy) {
			return fmt.Errorf("catalog %s paths %d,%d not a cheapest-first frontier", resp.Model, i-1, i)
		}
	}
	return nil
}

func checkCatalogBody(body []byte, spec serve.CatalogRequest) (serve.CatalogResponse, error) {
	var resp serve.CatalogResponse
	if err := decodeStrict(body, &resp); err != nil {
		return resp, err
	}
	return resp, checkCatalog(resp, spec)
}

func checkBatchBody(body []byte, specs []serve.CatalogRequest) ([]serve.CatalogResponse, error) {
	var resp serve.BatchResponse
	if err := decodeStrict(body, &resp); err != nil {
		return nil, err
	}
	if len(resp.Results) != len(specs) {
		return nil, fmt.Errorf("batch has %d results for %d specs", len(resp.Results), len(specs))
	}
	cats := make([]serve.CatalogResponse, len(specs))
	for i, r := range resp.Results {
		if r.Error != "" || r.Catalog == nil {
			return nil, fmt.Errorf("batch item %d failed: %q", i, r.Error)
		}
		if err := checkCatalog(*r.Catalog, specs[i]); err != nil {
			return nil, fmt.Errorf("batch item %d: %w", i, err)
		}
		cats[i] = *r.Catalog
	}
	return cats, nil
}

// checkReplayBody validates a replay response: it covers the requested
// frames over a catalog of the expected frontier size, every policy
// accounts for every frame, the dynamic policy completes exactly the
// frames static-cheapest completes, and its effective accuracy is at
// least that of both static policies — the paper's claim that dynamic
// path selection beats any static path.
func checkReplayBody(body []byte, rr *serve.ReplayRequest, paths int) error {
	var resp serve.ReplayResponse
	if err := decodeStrict(body, &resp); err != nil {
		return err
	}
	name, unit, err := backendInfo(rr.Catalog.Backend)
	if err != nil {
		return err
	}
	if resp.Backend != name || resp.Unit != unit || resp.Paths != paths || len(resp.Results) != 1 {
		return fmt.Errorf("replay header %q/%q paths=%d results=%d, want %q/%q paths=%d results=1",
			resp.Backend, resp.Unit, resp.Paths, len(resp.Results), name, unit, paths)
	}
	res := resp.Results[0]
	want := rr.Policies
	if len(want) == 0 {
		want = []string{"dynamic", "static-full", "static-cheapest"}
	}
	if res.Error != "" || res.Frames != rr.Trace.Frames || len(res.Policies) != len(want) {
		return fmt.Errorf("replay result error=%q frames=%d policies=%d, want %d frames over %d policies",
			res.Error, res.Frames, len(res.Policies), rr.Trace.Frames, len(want))
	}
	byName := map[string]serve.ReplayPolicyResult{}
	for i, p := range res.Policies {
		if p.Policy != want[i] {
			return fmt.Errorf("replay policy %d is %q, want %q", i, p.Policy, want[i])
		}
		if p.Result.Frames != res.Frames || p.Result.Completed+p.Result.Skipped != res.Frames {
			return fmt.Errorf("replay policy %s accounts for %d+%d of %d frames", p.Policy, p.Result.Completed, p.Result.Skipped, res.Frames)
		}
		byName[p.Policy] = p
	}
	dyn, cheap, full := byName["dynamic"], byName["static-cheapest"], byName["static-full"]
	if dyn.Result.Completed != cheap.Result.Completed {
		return fmt.Errorf("dynamic completed %d frames, static-cheapest %d", dyn.Result.Completed, cheap.Result.Completed)
	}
	if dyn.EffectiveAccuracy < cheap.EffectiveAccuracy || dyn.EffectiveAccuracy < full.EffectiveAccuracy {
		return fmt.Errorf("dynamic effective accuracy %v below a static policy (cheapest %v, full %v)",
			dyn.EffectiveAccuracy, cheap.EffectiveAccuracy, full.EffectiveAccuracy)
	}
	return nil
}

// references are the set-up responses the warm requests must reproduce
// byte for byte, plus the frontier size of every catalog they built.
type references struct {
	bodies [][]byte
	sums   []uint32
	paths  map[string]int // catalog target → frontier size
}

// newReferences validates the set-up responses and indexes them.
func newReferences(setup []request, bodies [][]byte) (*references, error) {
	refs := &references{bodies: bodies, paths: map[string]int{}}
	for i, r := range setup {
		refs.sums = append(refs.sums, crc(bodies[i]))
		if r.kind == kindCatalog {
			resp, err := checkCatalogBody(bodies[i], r.specs[0])
			if err != nil {
				return nil, fmt.Errorf("set-up %s: %w", r.target, err)
			}
			refs.paths[catalogTarget(r.specs[0])] = len(resp.Paths)
		}
	}
	for i, r := range setup {
		var err error
		switch r.kind {
		case kindReplay:
			err = checkReplayBody(bodies[i], r.replay, refs.paths[catalogTarget(r.specs[0])])
		case kindBatch:
			err = refs.checkBatch(bodies[i], r.specs)
		}
		if err != nil {
			return nil, fmt.Errorf("set-up %s %s: %w", r.target, r.body, err)
		}
	}
	return refs, nil
}

// checkBatch validates a batch body and requires each item to equal the
// standalone catalog response for its spec.
func (refs *references) checkBatch(body []byte, specs []serve.CatalogRequest) error {
	cats, err := checkBatchBody(body, specs)
	if err != nil {
		return err
	}
	for i, s := range specs {
		want, ok := refs.paths[catalogTarget(s)]
		if ok && want != len(cats[i].Paths) {
			return fmt.Errorf("batch item %d has %d paths, the catalog %d", i, len(cats[i].Paths), want)
		}
	}
	return nil
}

// checkSamples applies the gate to one phase's samples: every response
// is a 200; warm responses equal their set-up reference; unique
// responses have the expected shape and invariants.
func (refs *references) checkSamples(g *gate, reqs []request, samples []sample) {
	for i, s := range samples {
		r := reqs[i]
		if !s.ok() {
			g.fail("%s %s: status %d, error %v", r.kind, r.target, s.status, s.err)
			continue
		}
		var err error
		switch {
		case r.warm():
			if s.sum != refs.sums[r.ref] || s.size != len(refs.bodies[r.ref]) {
				err = fmt.Errorf("response differs from the set-up response (%d bytes vs %d)", s.size, len(refs.bodies[r.ref]))
			}
		case r.kind == kindCold:
			_, err = checkCatalogBody(s.body, r.specs[0])
		case r.kind == kindColdBatch:
			_, err = checkBatchBody(s.body, r.specs)
		case r.kind == kindTrace:
			err = checkReplayBody(s.body, r.replay, refs.paths[catalogTarget(r.specs[0])])
		}
		if err != nil {
			g.fail("%s %s %s: %v", r.kind, r.target, r.body, err)
		}
	}
}

// directCatalog builds a spec's catalog outside the daemon: a fresh
// engine with one worker over a fresh store.
func directCatalog(ctx context.Context, spec serve.CatalogRequest) (serve.CatalogResponse, error) {
	b, err := serve.ResolveBackend(spec.Backend)
	if err != nil {
		return serve.CatalogResponse{}, err
	}
	model, seq, err := spec.Seq()
	if err != nil {
		return serve.CatalogResponse{}, err
	}
	cat, _, err := engine.NewWithCache(b, 1, serve.NewStore(0)).CatalogFromSeq(ctx, model, seq, engine.StreamOptions{})
	if err != nil {
		return serve.CatalogResponse{}, err
	}
	_, unit, err := backendInfo(spec.Backend)
	return serve.CatalogResponseFor(cat, b.Name(), unit), err
}

// sameFrontier compares two catalogs path by path: labels equal, costs
// and accuracies bit-for-bit.
func sameFrontier(got, want serve.CatalogResponse) error {
	if got.Model != want.Model || got.Backend != want.Backend || len(got.Paths) != len(want.Paths) {
		return fmt.Errorf("served %s/%s with %d paths, direct build %s/%s with %d",
			got.Model, got.Backend, len(got.Paths), want.Model, want.Backend, len(want.Paths))
	}
	for i, p := range got.Paths {
		q := want.Paths[i]
		if p.Label != q.Label || math.Float64bits(p.Cost) != math.Float64bits(q.Cost) ||
			math.Float64bits(p.Accuracy) != math.Float64bits(q.Accuracy) {
			return fmt.Errorf("path %d served %+v, direct build %+v", i, p, q)
		}
	}
	return nil
}

// directSampleSize is how many served cold specs per run are rebuilt
// directly and compared.
const directSampleSize = 3

// checkDirect rebuilds a seeded sample of the run's cold specs and
// compares each served frontier with the direct build.
func checkDirect(ctx context.Context, g *gate, seed int64, reqs []request, samples []sample) {
	type served struct {
		spec serve.CatalogRequest
		resp serve.CatalogResponse
	}
	var cold []served
	for i, r := range reqs {
		if !samples[i].ok() {
			continue
		}
		switch r.kind {
		case kindCold:
			if resp, err := checkCatalogBody(samples[i].body, r.specs[0]); err == nil {
				cold = append(cold, served{r.specs[0], resp})
			}
		case kindColdBatch:
			if cats, err := checkBatchBody(samples[i].body, r.specs); err == nil {
				for j, s := range r.specs {
					cold = append(cold, served{s, cats[j]})
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(cold), func(i, j int) { cold[i], cold[j] = cold[j], cold[i] })
	for _, c := range cold[:min(directSampleSize, len(cold))] {
		want, err := directCatalog(ctx, c.spec)
		if err == nil {
			err = sameFrontier(c.resp, want)
		}
		if err != nil {
			g.fail("cold spec %+v: %v", c.spec, err)
		}
	}
}

func crc(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// control is the HTTP client for untimed control requests (/statsz).
var control = &http.Client{Timeout: time.Minute, Transport: &http.Transport{DisableKeepAlives: true}}

func getJSON(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := control.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

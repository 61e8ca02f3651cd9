package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"strings"

	"vitdyn/internal/engine"
	"vitdyn/internal/rdd"
)

// ReplayRequest is the POST /v1/replay body: one catalog spec plus one
// or many declarative trace specs, replayed server-side so clients need
// no local engine. The catalog is built once (one sweep slot, streamed
// through the shared cost store); every trace then replays against it
// under each requested path-selection policy.
type ReplayRequest struct {
	// Catalog names the catalog to replay against; its Workers field is
	// ignored in favor of the request-wide budget below.
	Catalog CatalogRequest `json:"catalog"`
	// Trace is the single-trace form; errors surface as HTTP statuses.
	Trace *rdd.TraceSpec `json:"trace,omitempty"`
	// Traces is the batch form (many traces, one catalog): items fail
	// independently, mirroring /v1/batch.
	Traces []rdd.TraceSpec `json:"traces,omitempty"`
	// Policies selects the path-selection policies to replay; the zero
	// value selects all of dynamic, static-full and static-cheapest.
	// "static:<label>" pins an arbitrary catalog path.
	Policies []string `json:"policies,omitempty"`
	// Workers is the request-wide budget: it caps the catalog sweep pool
	// and, in the batch form, the trace fan-out (0 = server default).
	Workers int `json:"workers,omitempty"`
}

// ReplayPolicyResult is one policy's replay outcome over one trace.
type ReplayPolicyResult struct {
	Policy            string        `json:"policy"`
	Path              string        `json:"path,omitempty"` // static policies: the pinned path
	Result            rdd.SimResult `json:"result"`
	EffectiveAccuracy float64       `json:"effective_accuracy"` // skipped frames count as zero accuracy
	SwitchRate        float64       `json:"switch_rate"`        // completed-frame transitions that changed path
}

// ReplayTraceResult is one trace's replay across every policy. Trace
// echoes the spec as replayed — with the catalog-relative budget scale
// substituted when the spec left lo/hi unset — so results are
// reproducible offline from the response alone. Batch items fail
// independently: Error is set and Policies empty.
type ReplayTraceResult struct {
	Trace    rdd.TraceSpec        `json:"trace"`
	Frames   int                  `json:"frames"`
	Policies []ReplayPolicyResult `json:"policies,omitempty"`
	Error    string               `json:"error,omitempty"`
}

// ReplayResponse is the POST /v1/replay response: the catalog that was
// built, and one ReplayTraceResult per requested trace, in request
// order.
type ReplayResponse struct {
	Model   string              `json:"model"`
	Backend string              `json:"backend"`
	Unit    string              `json:"unit,omitempty"`
	Paths   int                 `json:"paths"` // catalog frontier size
	Results []ReplayTraceResult `json:"results"`
}

// Replay request limits: one request replays at most maxReplayFrames
// frames across ALL its traces (an 80 MB budget-slice ceiling however
// wide the batch fans out — generous for any replay, small enough that
// one request cannot exhaust the daemon's memory), and the body is at
// most maxReplayBodyBytes (bounding inline values and batch width).
const (
	maxReplayFrames    = 10_000_000
	maxReplayBodyBytes = 8 << 20
)

// specFrames is the frame count a spec will materialize — Frames for
// the generated kinds, the inline length for values.
func specFrames(s rdd.TraceSpec) int {
	if len(s.Values) > 0 {
		return len(s.Values)
	}
	return s.Frames
}

// parseHysteresisPolicy recognizes the dynamic-hysteresis:<k> policy
// form, returning (k, true) on a match. A matched-but-malformed k is an
// error: the name was clearly meant as this policy.
func parseHysteresisPolicy(name string) (int, bool, error) {
	rest, ok := strings.CutPrefix(name, "dynamic-hysteresis:")
	if !ok {
		return 0, false, nil
	}
	k, err := strconv.Atoi(rest)
	if err != nil || k < 1 {
		return 0, true, fmt.Errorf("bad policy %q: want dynamic-hysteresis:<k> with integer k >= 1", name)
	}
	return k, true, nil
}

// namedPolicyPins is the single table of fixed-name static policies —
// validatePolicyNames and resolveReplayPolicies both consult it, so a
// new policy kind lands in one place. "dynamic" and the "static:<label>"
// form are handled structurally alongside it.
var namedPolicyPins = map[string]func(*rdd.Catalog) rdd.Path{
	"static-full":     (*rdd.Catalog).Full,
	"static-cheapest": (*rdd.Catalog).Cheapest,
}

func unknownPolicyError(name string) error {
	return fmt.Errorf("unknown policy %q (want dynamic, dynamic-hysteresis:<k>, static-full, static-cheapest, static:<label>)", name)
}

// validatePolicyNames rejects unknown policy names. It needs no
// catalog, so the handler runs it before paying for the sweep; only
// static:<label> pin resolution waits for the built catalog.
func validatePolicyNames(names []string) error {
	for _, name := range names {
		if _, matched, err := parseHysteresisPolicy(name); matched {
			if err != nil {
				return err
			}
			continue
		}
		switch {
		case name == "dynamic", namedPolicyPins[name] != nil:
		case strings.HasPrefix(name, "static:") && len(name) > len("static:"):
		default:
			return unknownPolicyError(name)
		}
	}
	return nil
}

// resolveReplayPolicies maps policy names to executable policies
// against a built catalog, returning the names as replayed alongside:
// nil selects the default panel.
func resolveReplayPolicies(cat *rdd.Catalog, names []string) ([]string, []rdd.Policy, error) {
	if len(names) == 0 {
		names = []string{"dynamic", "static-full", "static-cheapest"}
	}
	pols := make([]rdd.Policy, 0, len(names))
	for _, name := range names {
		if k, matched, err := parseHysteresisPolicy(name); matched {
			if err != nil {
				return nil, nil, err
			}
			pols = append(pols, rdd.HysteresisPolicy(k))
			continue
		}
		switch pin := namedPolicyPins[name]; {
		case name == "dynamic":
			pols = append(pols, rdd.DynamicPolicy())
		case pin != nil:
			pols = append(pols, rdd.StaticPolicy(pin(cat)))
		case strings.HasPrefix(name, "static:"):
			label := strings.TrimPrefix(name, "static:")
			i := slices.IndexFunc(cat.Paths, func(p rdd.Path) bool { return p.Label == label })
			if i < 0 {
				return nil, nil, fmt.Errorf("policy %q: catalog %s has no path %q", name, cat.Model, label)
			}
			pols = append(pols, rdd.StaticPolicy(cat.Paths[i]))
		default:
			return nil, nil, unknownPolicyError(name)
		}
	}
	return names, pols, nil
}

// simulateReplay replays one trace under every policy in one pass. An
// infeasible trace — even its largest budget below the catalog's
// cheapest path, so no policy could ever complete a frame — is an
// explicit *rdd.BudgetError rather than a silent all-skipped result.
func simulateReplay(cat *rdd.Catalog, tr rdd.Trace, names []string, pols []rdd.Policy) ([]ReplayPolicyResult, error) {
	results, err := cat.Replay(tr, pols)
	if err != nil {
		return nil, err
	}
	out := make([]ReplayPolicyResult, len(pols))
	for i, res := range results {
		path := ""
		if pols[i].Static {
			path = pols[i].Pin.Label
		}
		out[i] = ReplayPolicyResult{
			Policy:            names[i],
			Path:              path,
			Result:            res,
			EffectiveAccuracy: res.EffectiveAccuracy(),
			SwitchRate:        res.SwitchRate(),
		}
	}
	return out, nil
}

// handleReplay serves POST /v1/replay: build the catalog once through
// the streaming pipeline (one sweep slot, shared store), then replay
// every requested trace against it. Trace specs that left lo/hi unset
// replay on a catalog-relative budget scale (cheapest·1.05 .. full·1.05,
// the same scale the rddsim replay experiment uses).
func (s *Server) handleReplay(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST a JSON replay spec to /v1/replay")
		return
	}
	var req ReplayRequest
	r.Body = http.MaxBytesReader(w, r.Body, maxReplayBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		status := http.StatusBadRequest
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, "bad replay body: %v", err)
		return
	}
	single := req.Trace != nil
	if single && len(req.Traces) > 0 {
		writeError(w, http.StatusBadRequest, "give either trace (single) or traces (batch), not both")
		return
	}
	specs := req.Traces
	if single {
		specs = []rdd.TraceSpec{*req.Trace}
	}
	if len(specs) == 0 {
		writeError(w, http.StatusBadRequest, "empty replay: want trace={kind: ...} or traces=[{kind: ...}, ...]")
		return
	}
	// The frame ceiling is request-wide: a batch fanning out cannot
	// multiply the per-trace allowance by the worker count. Each spec is
	// bounded BEFORE summing: a non-positive count is always invalid, and
	// per-spec bounds keep the running total overflow-proof — otherwise a
	// huge positive spec offset by a negative one sums under the ceiling
	// yet still reaches the generator's allocation.
	totalFrames := 0
	for i, sp := range specs {
		// values-file resolves a path on the machine building the trace;
		// honoring one here would read server-local files on a remote
		// caller's behalf. Clients resolve the file and send inline values.
		if sp.Kind == "values-file" || sp.Path != "" {
			writeError(w, http.StatusBadRequest,
				"trace %d: values-file traces are resolved client-side (rddsim -trace-spec); send the recorded budgets as an inline values trace", i)
			return
		}
		n := specFrames(sp)
		if n < 1 || n > maxReplayFrames {
			writeError(w, http.StatusBadRequest, "trace %d replays %d frames; each trace must replay between 1 and %d",
				i, n, maxReplayFrames)
			return
		}
		totalFrames += n
	}
	if totalFrames > maxReplayFrames {
		writeError(w, http.StatusBadRequest, "request replays %d frames across %d trace(s), exceeding the server limit of %d",
			totalFrames, len(specs), maxReplayFrames)
		return
	}
	backend, err := ResolveBackend(req.Catalog.Backend)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	model, seq, err := req.Catalog.Seq()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := validatePolicyNames(req.Policies); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	// Warm path: a repeat replay (canonical spec, single/batch forms
	// folded, workers ignored) serves its cached bytes without a sweep
	// slot, a catalog lookup or a single simulated frame.
	var cacheKey string
	if respCacheableQuery(r.URL.RawQuery) {
		cacheKey = replayCacheKey(req.Catalog, specs, req.Policies)
		if ent, ok := s.respLookup(respReplay, cacheKey); ok {
			s.replays.Add(1)
			writeEntry(w, ent)
			return
		}
	}

	ctx := r.Context()
	if err := s.acquireSweepSlot(ctx); err != nil {
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	defer s.releaseSweepSlot()

	workers := s.workerBudget(req.Workers)
	// The slot is already held (trace fan-out below needs it anyway), so
	// a cached catalog costs a lookup and a cold one builds in place.
	cat, err := s.catalogFor(ctx, req.Catalog, backend, model, seq, workers, true)
	if err != nil {
		writeCatalogError(w, model, err)
		return
	}

	names, pols, err := resolveReplayPolicies(cat, req.Policies)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	lo, hi := cat.DefaultBudgetScale()
	results := make([]ReplayTraceResult, len(specs))
	itemErrs := make([]error, len(specs))
	// Traces fan out under the same request budget the sweep used; each
	// simulation is sequential, so fan-out is the only parallelism here.
	fan := workers
	if len(specs) < fan {
		fan = len(specs)
	}
	// Item errors land in their slot, so ForEachCtx only ever sees the
	// context expiring — that aborts the remaining traces.
	err = engine.ForEachCtx(ctx, fan, len(specs), func(i int) error {
		spec := specs[i].WithBudgetScale(lo, hi)
		results[i].Trace = spec
		tr, err := spec.Build()
		if err != nil {
			itemErrs[i] = err
			return nil
		}
		results[i].Frames = len(tr)
		frames := int64(len(tr))
		polResults, err := simulateReplay(cat, tr, names, pols)
		// The trace is consumed: results hold aggregates and the echoed
		// spec holds the client's inline values, never the built slice —
		// its backing array goes back to the generator pool.
		rdd.RecycleTrace(tr)
		if err != nil {
			s.replayInfeasible.Add(1)
			itemErrs[i] = err
			return nil
		}
		results[i].Policies = polResults
		s.replayTraces.Add(1)
		s.replayFrames.Add(frames)
		return nil
	})
	if err != nil {
		writeError(w, httpStatusFor(err), "replay: %v", err)
		return
	}

	if single && itemErrs[0] != nil {
		// The single-trace form maps trace failures to statuses: an
		// infeasible budget is the client's mistake (422), as is a bad
		// spec (400).
		status := http.StatusBadRequest
		if errors.Is(itemErrs[0], rdd.ErrBudgetInfeasible) {
			status = http.StatusUnprocessableEntity
		}
		writeError(w, status, "replay %s: %v", model, itemErrs[0])
		return
	}
	allOK := true
	for i, e := range itemErrs {
		if e != nil {
			results[i].Error = e.Error()
			allOK = false
		}
	}
	s.replays.Add(1)
	resp := ReplayResponse{
		Model:   cat.Model,
		Backend: backend.Name(),
		Unit:    unitFor(backend.Name()),
		Paths:   len(cat.Paths),
		Results: results,
	}
	// Cache only fully-successful replays — item errors may be transient
	// — stamped with the catalog backend's epoch so a cost-model upgrade
	// or a salt flip invalidates the bytes with the catalog.
	if allOK && cacheKey != "" {
		if buf, err := encodeJSON(resp); err == nil {
			s.resp.put(respReplay, cacheKey, buf.Bytes(),
				[]epochStamp{{backend: backend, epoch: engine.BackendEpoch(backend)}})
			writeBuf(w, http.StatusOK, buf.Bytes())
			putEncBuf(buf)
			return
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// replayCacheKey renders the canonical identity of a replay request as
// the response-cache key: the catalog spec canonicalized, the trace
// specs exactly as they will replay (the single-trace and one-element
// batch forms produce identical responses and share a key), the policy
// panel verbatim, worker budgets dropped. "" means "do not cache" — an
// unmarshalable spec or a values trace large enough to blow the key
// budget.
func replayCacheKey(cat CatalogRequest, specs []rdd.TraceSpec, policies []string) string {
	key := struct {
		Catalog  CatalogRequest  `json:"catalog"`
		Traces   []rdd.TraceSpec `json:"traces"`
		Policies []string        `json:"policies,omitempty"`
	}{Catalog: canonicalCatalogRequest(cat), Traces: specs, Policies: policies}
	b, err := json.Marshal(key)
	if err != nil || len(b) > maxRespKeyBytes {
		return ""
	}
	return string(b)
}

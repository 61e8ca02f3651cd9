// Package rdd implements resource-dependent dynamic inference (Section II-A
// and V-E): a catalog of alternative execution paths with known cost and
// accuracy, a controller that selects the most accurate path whose cost fits
// the instantaneous resource budget, and a simulator that replays
// resource-availability traces to measure average accuracy and deadline
// behaviour against static full and worst-case baselines.
//
// Replay is one pass: Catalog.Replay evaluates every policy of a
// comparison — dynamic, hysteresis-damped, static pins — in a single walk
// over the trace, and the single-policy Simulate* functions are calls
// into the same kernel (see replay.go).
//
// Substitution note (see PAPER.md for the paper's setup): the paper
// targets real-time systems with fluctuating load; with no such system
// available, traces are synthetic (sinusoidal, bursty Markov, step) or
// recorded budgets supplied by the caller. The controller logic itself —
// an image-independent table lookup per inference — is exactly the
// paper's.
package rdd

import (
	"errors"
	"fmt"
	"math"

	"vitdyn/internal/pareto"
)

// Path is one executable configuration of a model.
type Path struct {
	Label    string
	Cost     float64 // execution time (or energy) per inference, arbitrary units
	Accuracy float64 // mIoU / AP / top-1
}

// Catalog is a set of alternative execution paths for one model.
type Catalog struct {
	Model string
	Paths []Path
}

// ValidatePath checks a path's metrics: finite positive cost, accuracy
// in [0,1]. NaN fails both checks. Both catalog constructors and the
// streaming pipeline apply it to every candidate they admit, and Replay
// to every path of the catalog it walks.
func ValidatePath(p Path) error {
	if math.IsNaN(p.Cost) || math.IsInf(p.Cost, 1) {
		return fmt.Errorf("rdd: path %q has non-finite cost %v", p.Label, p.Cost)
	}
	if p.Cost <= 0 {
		return fmt.Errorf("rdd: path %q has non-positive cost", p.Label)
	}
	if !(p.Accuracy >= 0 && p.Accuracy <= 1) {
		return fmt.Errorf("rdd: path %q accuracy %v outside [0,1]", p.Label, p.Accuracy)
	}
	return nil
}

// NewCatalog builds a catalog, dropping Pareto-dominated paths so lookups
// are over the efficient frontier only.
func NewCatalog(model string, paths []Path) (*Catalog, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("rdd: catalog %q needs at least one path", model)
	}
	b := pareto.NewFrontierBuilder()
	for _, p := range paths {
		if err := ValidatePath(p); err != nil {
			return nil, err
		}
		b.Insert(pareto.Point{Cost: p.Cost, Value: p.Accuracy, Tag: p.Label})
	}
	return NewCatalogFromBuilder(model, b)
}

// NewCatalogFromBuilder builds a catalog directly from an incrementally
// reduced frontier — the streaming construction path, where candidates
// were inserted (and dominated ones discarded) as they were costed, so no
// intermediate []Path of the full sweep ever exists. The resulting catalog
// is identical to NewCatalog over the same point set: same frontier, same
// deterministic order, same per-path validation.
func NewCatalogFromBuilder(model string, b *pareto.FrontierBuilder) (*Catalog, error) {
	if b.Len() == 0 {
		return nil, fmt.Errorf("rdd: catalog %q needs at least one path", model)
	}
	frontier := b.Frontier()
	c := &Catalog{Model: model}
	seen := map[string]bool{}
	for _, f := range frontier {
		if seen[f.Tag] {
			continue
		}
		seen[f.Tag] = true
		p := Path{Label: f.Tag, Cost: f.Cost, Accuracy: f.Value}
		if err := ValidatePath(p); err != nil {
			return nil, err
		}
		c.Paths = append(c.Paths, p)
	}
	return c, nil
}

// Full returns the most accurate (most expensive) path.
func (c *Catalog) Full() Path { return c.Paths[len(c.Paths)-1] }

// Cheapest returns the least expensive path.
func (c *Catalog) Cheapest() Path { return c.Paths[0] }

// DefaultBudgetScale is the catalog-relative trace budget range every
// replay entry point (rddsim -exp replay, /v1/replay) substitutes when
// a TraceSpec leaves lo/hi unset: cheapest·1.05 to full·1.05, so the
// trace spans "barely fits the cheapest path" to "everything fits".
// One definition keeps the CLI and the server replaying byte-identical
// traces.
func (c *Catalog) DefaultBudgetScale() (lo, hi float64) {
	return c.Cheapest().Cost * 1.05, c.Full().Cost * 1.05
}

// Select returns the most accurate path whose cost fits the budget, and
// false when even the cheapest path exceeds it (the frame must be skipped).
// Selection is input-independent, as in the paper. The scan runs directly
// over Paths with pareto.BestValueUnderCost's exact semantics (highest
// accuracy under budget, ties to the cheaper path, first-seen on exact
// ties) — it allocates nothing and always reads the current Paths, so
// catalogs assembled or mutated by hand select correctly too. Replays do
// not scan per frame: they select through a SelectIndex.
func (c *Catalog) Select(budget float64) (Path, bool) {
	best := Path{}
	found := false
	for _, p := range c.Paths {
		if p.Cost > budget {
			continue
		}
		if !found || p.Accuracy > best.Accuracy || (p.Accuracy == best.Accuracy && p.Cost < best.Cost) {
			best = p
			found = true
		}
	}
	return best, found
}

// ErrBudgetInfeasible reports a budget below the catalog's cheapest
// path: no execution path fits, so the frame (or the whole request, at
// the serving layer) cannot run. Match with errors.Is.
var ErrBudgetInfeasible = errors.New("budget below cheapest path")

// BudgetError is the concrete ErrBudgetInfeasible: which catalog, the
// offending budget, and the cheapest cost it failed to cover — enough
// for an HTTP layer to render an actionable 4xx instead of a silent
// zero-accuracy fallback.
type BudgetError struct {
	Model    string
	Budget   float64
	Cheapest float64
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("rdd: catalog %q: budget %v below cheapest path cost %v", e.Model, e.Budget, e.Cheapest)
}

// Is makes errors.Is(err, ErrBudgetInfeasible) match.
func (e *BudgetError) Is(target error) bool { return target == ErrBudgetInfeasible }

// SelectStrict is Select with the infeasible case surfaced as an
// explicit *BudgetError instead of a false that is easy to drop on the
// floor. Callers replaying whole traces still use Select (a skipped
// frame is normal there); callers answering a single budget query — the
// serving layer in particular — should use SelectStrict and map the
// error to a client-side failure.
func (c *Catalog) SelectStrict(budget float64) (Path, error) {
	p, ok := c.Select(budget)
	if !ok {
		return Path{}, &BudgetError{Model: c.Model, Budget: budget, Cheapest: c.Cheapest().Cost}
	}
	return p, nil
}

// Trace is a sequence of per-frame resource budgets (in the same units as
// path costs).
type Trace []float64

// Max returns the largest budget in the trace (0 for an empty trace) —
// the feasibility bound: a catalog whose cheapest path exceeds it can
// never complete a frame.
func (tr Trace) Max() float64 {
	max := 0.0
	for i, v := range tr {
		if i == 0 || v > max {
			max = v
		}
	}
	return max
}

// SinusoidTrace models a smoothly varying load: budget oscillates between
// lo and hi over the given period (frames).
func SinusoidTrace(frames int, lo, hi float64, period int) Trace {
	if period <= 0 {
		period = 100
	}
	tr := getTrace(frames)
	for i := range tr {
		phase := 2 * math.Pi * float64(i) / float64(period)
		tr[i] = lo + (hi-lo)*(0.5+0.5*math.Sin(phase))
	}
	return tr
}

// StepTrace alternates between hi and lo budgets every stride frames —
// the paper's scenario of other tasks periodically claiming the platform.
func StepTrace(frames int, lo, hi float64, stride int) Trace {
	if stride <= 0 {
		stride = 50
	}
	tr := getTrace(frames)
	// Fill whole strides: hi, lo, hi, ...
	level, next := hi, lo
	for start := 0; start < frames; start += stride {
		fill := tr[start:min(start+stride, frames)]
		for i := range fill {
			fill[i] = level
		}
		level, next = next, level
	}
	return tr
}

// BurstyTrace models a two-state Markov load (normal/contended) with a
// deterministic linear-congruential sequence so runs are reproducible.
type lcg uint64

func (r *lcg) next() float64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return float64(*r>>11) / float64(1<<53)
}

// BurstyTrace returns a trace that spends roughly busyFrac of its frames in
// a contended state with only lo budget, and hi budget otherwise: a
// two-state chain entering contention with per-frame probability k·busyFrac
// and leaving it with k·(1-busyFrac), whose stationary contended fraction
// is exactly busyFrac. k is scaled so the larger flip probability is 0.2
// (mean burst lengths of ~5+ frames) and neither ever exceeds 1 — the
// naive 0.2·busyFrac/(1-busyFrac) entry probability saturates above
// busyFrac ≈ 0.83 and its denominator blows up at 1. busyFrac <= 0 yields
// an uncontended (all-hi) trace and busyFrac >= 1 a fully contended
// (all-lo) one.
func BurstyTrace(frames int, lo, hi, busyFrac float64, seed uint64) Trace {
	tr := getTrace(frames)
	if busyFrac <= 0 || busyFrac >= 1 {
		budget := hi
		if busyFrac >= 1 {
			budget = lo
		}
		for i := range tr {
			tr[i] = budget
		}
		return tr
	}
	r := lcg(seed)
	contended := false
	k := 0.2 / math.Max(busyFrac, 1-busyFrac)
	enterProb := k * busyFrac
	leaveProb := k * (1 - busyFrac)
	for i := range tr {
		// Flip state with probability tuned to the target duty cycle.
		u := r.next()
		if contended {
			if u < leaveProb {
				contended = false
			}
		} else {
			if u < enterProb {
				contended = true
			}
		}
		if contended {
			tr[i] = lo
		} else {
			tr[i] = hi
		}
	}
	return tr
}

// SimResult summarizes replaying a trace through a policy. The JSON
// form is what /v1/replay serves, so the field tags are part of the
// serving API.
type SimResult struct {
	Frames        int     `json:"frames"`
	Completed     int     `json:"completed"`       // frames where some path fit the budget
	Skipped       int     `json:"skipped"`         // frames with no feasible path
	Switches      int     `json:"switches"`        // path changes between consecutive completed frames
	MeanAccuracy  float64 `json:"mean_accuracy"`   // over completed frames
	MeanCost      float64 `json:"mean_cost"`       // over completed frames
	FullPathShare float64 `json:"full_path_share"` // fraction of completed frames using the full path
}

// SwitchRate is the fraction of completed-frame transitions that changed
// path — 0 for a static policy or a single-path catalog, approaching 1
// when the controller flips every frame.
func (r SimResult) SwitchRate() float64 {
	if r.Completed < 2 {
		return 0
	}
	return float64(r.Switches) / float64(r.Completed-1)
}

// Simulate replays the trace with dynamic path selection: Replay with
// the one DynamicPolicy, minus the feasibility check (an infeasible trace
// comes back as all-skipped frames).
func (c *Catalog) Simulate(tr Trace) SimResult {
	return c.replayOne(tr, DynamicPolicy())
}

// SimulateHysteresis replays the trace with dynamic path selection
// damped by switching hysteresis: the controller leaves its current path
// only once the budget-driven selector has preferred a different path
// for k consecutive completed frames — the paper's controller switches
// freely, but a real deployment pays a swap cost (weight reload, cache
// refill) per transition, so damping trades a little per-frame accuracy
// for far fewer switches. Two exceptions keep the replay honest: a frame
// whose budget no longer covers the current path switches immediately
// (running over budget is not an option), and a skipped frame (no path
// fits at all) breaks the consecutive-preference streak. Paths compare
// by label, so a preferred path sharing the current one's label is no
// switch and the current path keeps running. k <= 1 degenerates to
// Simulate exactly.
func (c *Catalog) SimulateHysteresis(tr Trace, k int) SimResult {
	return c.replayOne(tr, HysteresisPolicy(k))
}

// SimulateStatic replays the trace always running one fixed path: frames
// whose budget cannot fit it are skipped (accuracy 0 contribution is NOT
// averaged in; Skipped counts them, mirroring the paper's "skip a frame and
// perform no inference"). With no catalog in sight, FullPathShare can only
// approximate "the pinned path was the whole model" as "no frame was
// skipped"; catalog-aware callers should prefer Catalog.SimulateStatic,
// which knows whether the pin IS the full path.
func SimulateStatic(p Path, tr Trace) SimResult {
	res := (&Catalog{Paths: []Path{p}}).SimulateStatic(p, tr)
	if res.Skipped > 0 {
		res.FullPathShare = 0
	}
	return res
}

// SimulateStatic replays the trace pinned to path p like the package
// function, but with catalog context: FullPathShare is exactly the
// documented "fraction of completed frames using the full path" — 1
// when the pin is this catalog's full path and any frame completed, 0
// otherwise — instead of the package-level "no frame skipped"
// approximation (which reports 100% for a cheapest-path pin that never
// touches the full model).
func (c *Catalog) SimulateStatic(p Path, tr Trace) SimResult {
	return c.replayOne(tr, StaticPolicy(p))
}

// EffectiveAccuracy scores a result counting skipped frames as zero-accuracy
// outcomes — the metric under which RDD inference beats both a static full
// model (which skips contended frames) and a static worst-case model (which
// wastes accuracy on uncontended frames).
func (r SimResult) EffectiveAccuracy() float64 {
	if r.Frames == 0 {
		return 0
	}
	return r.MeanAccuracy * float64(r.Completed) / float64(r.Frames)
}

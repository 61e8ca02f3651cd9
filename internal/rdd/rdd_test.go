package rdd

import (
	"math"
	"testing"
	"testing/quick"

	"vitdyn/internal/pareto"
)

func testCatalog(t *testing.T) *Catalog {
	t.Helper()
	c, err := NewCatalog("segformer", []Path{
		{Label: "full", Cost: 3.9, Accuracy: 0.4651},
		{Label: "B2a", Cost: 3.4, Accuracy: 0.4565},
		{Label: "B2c", Cost: 2.9, Accuracy: 0.4374},
		{Label: "B2f", Cost: 1.6, Accuracy: 0.3345},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewCatalogDropsDominated(t *testing.T) {
	c, err := NewCatalog("m", []Path{
		{Label: "good", Cost: 1, Accuracy: 0.5},
		{Label: "bad", Cost: 2, Accuracy: 0.4}, // dominated
		{Label: "big", Cost: 3, Accuracy: 0.6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Paths) != 2 {
		t.Fatalf("catalog kept %d paths, want 2", len(c.Paths))
	}
	for _, p := range c.Paths {
		if p.Label == "bad" {
			t.Error("dominated path survived")
		}
	}
	if c.Cheapest().Label != "good" || c.Full().Label != "big" {
		t.Errorf("ordering wrong: %v", c.Paths)
	}
}

func TestNewCatalogValidation(t *testing.T) {
	if _, err := NewCatalog("m", nil); err == nil {
		t.Error("empty catalog accepted")
	}
	if _, err := NewCatalog("m", []Path{{Label: "x", Cost: 0, Accuracy: 0.5}}); err == nil {
		t.Error("zero-cost path accepted")
	}
	if _, err := NewCatalog("m", []Path{{Label: "x", Cost: 1, Accuracy: 1.5}}); err == nil {
		t.Error("accuracy > 1 accepted")
	}
}

func TestSelect(t *testing.T) {
	c := testCatalog(t)
	if p, ok := c.Select(10); !ok || p.Label != "full" {
		t.Errorf("ample budget -> %v", p)
	}
	if p, ok := c.Select(3.5); !ok || p.Label != "B2a" {
		t.Errorf("budget 3.5 -> %v", p)
	}
	if p, ok := c.Select(2.0); !ok || p.Label != "B2f" {
		t.Errorf("budget 2.0 -> %v", p)
	}
	if _, ok := c.Select(1.0); ok {
		t.Error("infeasible budget must fail")
	}
}

func TestTraces(t *testing.T) {
	sin := SinusoidTrace(200, 1, 5, 50)
	if len(sin) != 200 {
		t.Fatalf("trace length %d", len(sin))
	}
	min, max := sin[0], sin[0]
	for _, v := range sin {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if min < 1-1e-9 || max > 5+1e-9 || max-min < 3 {
		t.Errorf("sinusoid range [%v,%v]", min, max)
	}

	step := StepTrace(100, 1, 5, 10)
	if step[0] != 5 || step[10] != 1 || step[20] != 5 {
		t.Errorf("step trace wrong: %v %v %v", step[0], step[10], step[20])
	}

	b1 := BurstyTrace(1000, 1, 5, 0.3, 42)
	b2 := BurstyTrace(1000, 1, 5, 0.3, 42)
	for i := range b1 {
		if b1[i] != b2[i] {
			t.Fatal("bursty trace must be deterministic per seed")
		}
	}
	lowCount := 0
	for _, v := range b1 {
		if v == 1 {
			lowCount++
		}
	}
	if lowCount == 0 || lowCount == len(b1) {
		t.Errorf("bursty trace has %d contended frames of %d", lowCount, len(b1))
	}

	// Defaulted parameters do not panic.
	if len(SinusoidTrace(10, 1, 2, 0)) != 10 || len(StepTrace(10, 1, 2, 0)) != 10 {
		t.Error("default-period traces wrong length")
	}
}

// TestStepTraceMatchesPerFrameRule pins the stride-filling StepTrace to
// the per-frame definition — frame i is hi when (i/stride) is even, lo
// otherwise — for strides that divide the length, leave a partial last
// stride, exceed it, and for the empty trace.
func TestStepTraceMatchesPerFrameRule(t *testing.T) {
	for _, c := range []struct{ frames, stride int }{{0, 5}, {1, 1}, {7, 1}, {100, 10}, {101, 10}, {13, 50}, {64, 8}} {
		tr := StepTrace(c.frames, 1, 5, c.stride)
		if len(tr) != c.frames {
			t.Fatalf("frames=%d stride=%d: len %d", c.frames, c.stride, len(tr))
		}
		for i, v := range tr {
			want := 5.0
			if (i/c.stride)%2 != 0 {
				want = 1
			}
			if v != want {
				t.Fatalf("frames=%d stride=%d: frame %d = %v, want %v", c.frames, c.stride, i, v, want)
			}
		}
	}
}

// TestBurstyTraceDutyCycle pins the contended-frame fraction to busyFrac:
// the two-state chain's stationary contended probability is exactly
// busyFrac, so over a long trace the realized fraction must sit near it
// for any seed.
func TestBurstyTraceDutyCycle(t *testing.T) {
	const frames = 20000
	for _, busy := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		for _, seed := range []uint64{1, 7, 42} {
			tr := BurstyTrace(frames, 1, 5, busy, seed)
			contended := 0
			for _, v := range tr {
				if v == 1 {
					contended++
				}
			}
			frac := float64(contended) / frames
			if math.Abs(frac-busy) > 0.05 {
				t.Errorf("busyFrac=%.1f seed=%d: contended fraction %.3f off by more than 0.05", busy, seed, frac)
			}
		}
	}
}

// TestBurstyTraceDegenerateDutyCycles: busyFrac at or beyond the [0,1]
// endpoints must not blow up the flip-probability division — the trace
// degenerates to all-contended (>= 1) or all-uncontended (<= 0).
func TestBurstyTraceDegenerateDutyCycles(t *testing.T) {
	for _, busy := range []float64{1, 1.5, math.Inf(1)} {
		for i, v := range BurstyTrace(100, 1, 5, busy, 3) {
			if v != 1 {
				t.Fatalf("busyFrac=%v frame %d = %v, want all-contended lo budget", busy, i, v)
			}
		}
	}
	for _, busy := range []float64{0, -0.5, math.Inf(-1)} {
		for i, v := range BurstyTrace(100, 1, 5, busy, 3) {
			if v != 5 {
				t.Fatalf("busyFrac=%v frame %d = %v, want all-uncontended hi budget", busy, i, v)
			}
		}
	}
}

// TestNewCatalogFromBuilder: streaming construction (points inserted one
// at a time into a FrontierBuilder) yields exactly the catalog the batch
// constructor builds from the equivalent path slice.
func TestNewCatalogFromBuilder(t *testing.T) {
	paths := []Path{
		{Label: "full", Cost: 3.9, Accuracy: 0.4651},
		{Label: "dom", Cost: 4.2, Accuracy: 0.40}, // dominated
		{Label: "B2a", Cost: 3.4, Accuracy: 0.4565},
		{Label: "B2f", Cost: 1.6, Accuracy: 0.3345},
	}
	want, err := NewCatalog("m", paths)
	if err != nil {
		t.Fatal(err)
	}
	// Insert in a different order than the slice to prove order-independence.
	b := pareto.NewFrontierBuilder()
	for _, i := range []int{2, 0, 3, 1} {
		b.Insert(pareto.Point{Cost: paths[i].Cost, Value: paths[i].Accuracy, Tag: paths[i].Label})
	}
	got, err := NewCatalogFromBuilder("m", b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Paths) != len(want.Paths) {
		t.Fatalf("builder catalog has %d paths, want %d", len(got.Paths), len(want.Paths))
	}
	for i := range want.Paths {
		if got.Paths[i] != want.Paths[i] {
			t.Errorf("path %d: %+v != %+v", i, got.Paths[i], want.Paths[i])
		}
	}
	// Empty builder and invalid frontier points are rejected.
	if _, err := NewCatalogFromBuilder("m", pareto.NewFrontierBuilder()); err == nil {
		t.Error("empty builder accepted")
	}
	bad := pareto.NewFrontierBuilder()
	bad.Insert(pareto.Point{Cost: -1, Value: 0.5, Tag: "neg"})
	if _, err := NewCatalogFromBuilder("m", bad); err == nil {
		t.Error("non-positive cost accepted from builder")
	}
}

// TestSelectOnHandAssembledCatalog: a Catalog literal (no constructor)
// and an in-place mutated one must both select over the current Paths.
func TestSelectOnHandAssembledCatalog(t *testing.T) {
	c := &Catalog{Model: "hand", Paths: []Path{
		{Label: "cheap", Cost: 1, Accuracy: 0.3},
		{Label: "full", Cost: 3, Accuracy: 0.5},
	}}
	if p, ok := c.Select(2); !ok || p.Label != "cheap" {
		t.Errorf("hand-assembled Select -> %v %v", p, ok)
	}
	if p, ok := c.Select(5); !ok || p.Label != "full" {
		t.Errorf("hand-assembled Select ample budget -> %v %v", p, ok)
	}
	// Mutating Paths in place (e.g. rescaling cost units) must be honored
	// immediately — Select holds no stale precomputed state.
	built := testCatalog(t)
	for i := range built.Paths {
		built.Paths[i].Cost *= 10
	}
	if _, ok := built.Select(5); ok {
		t.Error("Select honored stale pre-mutation costs")
	}
	if p, ok := built.Select(40); !ok || p.Label != "full" {
		t.Errorf("Select after rescale -> %v %v", p, ok)
	}
}

// TestRDDBeatsStaticChoices is the paper's Section II-A argument: dynamic
// selection beats (a) the static full model, which skips contended frames,
// and (b) the static worst-case model, which wastes accuracy the rest of
// the time.
func TestRDDBeatsStaticChoices(t *testing.T) {
	c := testCatalog(t)
	tr := StepTrace(1000, 2.0, 5.0, 25) // half the frames fit only cheap paths

	dyn := c.Simulate(tr)
	staticFull := SimulateStatic(c.Full(), tr)
	staticWorst := SimulateStatic(Path{Label: "worst", Cost: c.Cheapest().Cost, Accuracy: c.Cheapest().Accuracy}, tr)

	if dyn.Skipped != 0 {
		t.Errorf("dynamic policy skipped %d frames with feasible paths", dyn.Skipped)
	}
	if staticFull.Skipped == 0 {
		t.Error("static full model should miss contended frames in this trace")
	}
	if dyn.EffectiveAccuracy() <= staticFull.EffectiveAccuracy() {
		t.Errorf("dynamic %.4f should beat static-full %.4f", dyn.EffectiveAccuracy(), staticFull.EffectiveAccuracy())
	}
	if dyn.EffectiveAccuracy() <= staticWorst.EffectiveAccuracy() {
		t.Errorf("dynamic %.4f should beat static-worst-case %.4f", dyn.EffectiveAccuracy(), staticWorst.EffectiveAccuracy())
	}
}

// TestAverageLossBelowWorstConfig (Section V-E): because the full model runs
// whenever resources allow, the average accuracy loss is smaller than the
// loss of any particular degraded configuration.
func TestAverageLossBelowWorstConfig(t *testing.T) {
	c := testCatalog(t)
	tr := SinusoidTrace(1000, 1.8, 6, 100)
	dyn := c.Simulate(tr)
	full := c.Full().Accuracy
	cheapest := c.Cheapest().Accuracy
	if dyn.MeanAccuracy <= cheapest || dyn.MeanAccuracy >= full {
		t.Errorf("mean accuracy %.4f should lie strictly between %.4f and %.4f",
			dyn.MeanAccuracy, cheapest, full)
	}
	if dyn.FullPathShare <= 0 {
		t.Error("full path should run on uncontended frames")
	}
}

func TestSimulateStaticFit(t *testing.T) {
	p := Path{Label: "p", Cost: 2, Accuracy: 0.5}
	res := SimulateStatic(p, Trace{3, 3, 3})
	if res.Skipped != 0 || res.Completed != 3 || res.MeanAccuracy != 0.5 || res.FullPathShare != 1 {
		t.Errorf("static fit result = %+v", res)
	}
	res = SimulateStatic(p, Trace{1, 1, 1})
	if res.Completed != 0 || res.EffectiveAccuracy() != 0 {
		t.Errorf("static miss result = %+v", res)
	}
}

func TestEmptyTrace(t *testing.T) {
	c := testCatalog(t)
	res := c.Simulate(nil)
	if res.Frames != 0 || res.EffectiveAccuracy() != 0 {
		t.Errorf("empty trace result = %+v", res)
	}
}

// Property: the dynamic policy's effective accuracy is at least that of any
// static path choice, for any trace.
func TestDynamicDominatesStaticQuick(t *testing.T) {
	c := testCatalog(t)
	f := func(seed uint16, frac uint8) bool {
		busy := float64(frac%90+5) / 100
		tr := BurstyTrace(300, 1.8, 5, busy, uint64(seed)+1)
		dyn := c.Simulate(tr).EffectiveAccuracy()
		for _, p := range c.Paths {
			if s := SimulateStatic(p, tr).EffectiveAccuracy(); dyn < s-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

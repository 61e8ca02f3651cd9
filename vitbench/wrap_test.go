package main

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"vitdyn/internal/engine"
	"vitdyn/internal/graph"
	"vitdyn/internal/magnet"
	"vitdyn/internal/serve"
)

// plainBackend implements none of the optional backend interfaces.
type plainBackend struct{}

func (plainBackend) Name() string { return "plain-test" }

func (plainBackend) Cost(g *graph.Graph) (float64, error) {
	return float64(g.TotalMACs())/1e9 + 1, nil
}

// keyRecorder is a CostCache that records the keys it is asked for.
type keyRecorder struct {
	inner engine.CostCache
	mu    sync.Mutex
	keys  map[[2]any]int
}

func (k *keyRecorder) GetOrComputeVector(backend string, epoch, sig uint64, compute func() ([]float64, error)) ([]float64, error) {
	k.mu.Lock()
	k.keys[[2]any{backend, epoch}]++
	k.mu.Unlock()
	return k.inner.GetOrComputeVector(backend, epoch, sig, compute)
}

// The traced run must do the daemon's work: a wrapped backend exposes
// the same optional interfaces, epoch and cost-store keys as the
// original, and a build through the wrappers yields the same catalog and
// stream counters.
func TestWrappersForwardOptionalInterfaces(t *testing.T) {
	backends := []engine.CostBackend{plainBackend{}, engine.MagnetTimeEnergy(magnet.AcceleratorE())}
	for _, info := range serve.Backends() {
		b, err := serve.ResolveBackend(info.Spec)
		if err != nil {
			t.Fatal(err)
		}
		backends = append(backends, b)
	}
	spec := serve.CatalogRequest{Family: "swin", Variant: "Tiny", Step: 128}
	model, _, err := spec.Seq()
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range backends {
		clock := &layerClock{}
		wb := wrapBackend(b, clock)
		if wb.Name() != b.Name() {
			t.Errorf("%s: wrapped name %q", b.Name(), wb.Name())
		}
		if engine.BackendEpoch(wb) != engine.BackendEpoch(b) {
			t.Errorf("%s: wrapped epoch differs", b.Name())
		}
		fm, ok := b.(engine.FLOPsMonotone)
		if want := ok && fm.FLOPsMonotone(); wb.(engine.FLOPsMonotone).FLOPsMonotone() != want {
			t.Errorf("%s: wrapped FLOPsMonotone is not %v", b.Name(), want)
		}
		_, multi := b.(engine.MultiCostBackend)
		if _, wmulti := wb.(engine.MultiCostBackend); wmulti != multi {
			t.Errorf("%s: wrapped MultiCostBackend %v, want %v", b.Name(), wmulti, multi)
		}

		build := func(backend engine.CostBackend, wrapSeq func(engine.CandidateSeq) engine.CandidateSeq) (*keyRecorder, []any) {
			_, seq, _ := spec.Seq()
			rec := &keyRecorder{inner: serve.NewStore(0), keys: map[[2]any]int{}}
			var cache engine.CostCache = rec
			cat, st, err := engine.NewWithCache(backend, 1, cache).CatalogFromSeq(context.Background(), model, wrapSeq(seq), engine.StreamOptions{})
			if err != nil {
				t.Fatalf("%s: %v", backend.Name(), err)
			}
			return rec, []any{cat, st}
		}
		var bc buildClock
		wantKeys, want := build(b, func(s engine.CandidateSeq) engine.CandidateSeq { return s })
		gotKeys, got := build(wb, bc.wrap)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: wrapped build %+v, want %+v", b.Name(), got[1], want[1])
		}
		if !reflect.DeepEqual(gotKeys.keys, wantKeys.keys) {
			t.Errorf("%s: wrapped store keys %v, want %v", b.Name(), gotKeys.keys, wantKeys.keys)
		}
		st := want[1].(engine.StreamStats)
		if n := bc.clock.calls.Load(); n != st.Generated {
			t.Errorf("%s: %d builds timed, %d candidates generated", b.Name(), n, st.Generated)
		}
		if n := clock.calls.Load(); n == 0 || n > st.Costed {
			t.Errorf("%s: %d evaluations timed for %d candidates costed", b.Name(), n, st.Costed)
		}
	}
}

func TestTimedCacheSplitsSelfAndCompute(t *testing.T) {
	c := &timedCache{inner: serve.NewStore(0)}
	computes := 0
	for i := 0; i < 3; i++ {
		vals, err := c.GetOrComputeVector("b", 1, 42, func() ([]float64, error) {
			computes++
			return []float64{7}, nil
		})
		if err != nil || vals[0] != 7 {
			t.Fatalf("lookup %d: %v %v", i, vals, err)
		}
	}
	total, compute := c.total.read(), c.compute.read()
	if computes != 1 || total.calls != 3 || compute.calls != 1 {
		t.Fatalf("computes %d, calls %d, timed computes %d; want 1, 3, 1", computes, total.calls, compute.calls)
	}
	if compute.ns > total.ns {
		t.Fatalf("compute time %d exceeds total %d", compute.ns, total.ns)
	}
}

package main

import (
	"runtime/metrics"
	"strings"
	"sync/atomic"
	"time"

	"vitdyn/internal/engine"
	"vitdyn/internal/graph"
)

// The timing wrappers of the traced run. Each sits on one layer
// boundary of the catalog pipeline and records calls and busy time
// there, from outside the program: the program itself carries no
// tracing.

// layerClock accumulates one boundary's call count and busy time.
type layerClock struct {
	calls atomic.Int64
	ns    atomic.Int64
}

func (c *layerClock) since(t time.Time) {
	c.calls.Add(1)
	c.ns.Add(int64(time.Since(t)))
}

func (c *layerClock) read() clockReading {
	return clockReading{calls: c.calls.Load(), ns: c.ns.Load()}
}

type clockReading struct{ calls, ns int64 }

func (a clockReading) sub(b clockReading) clockReading {
	return clockReading{calls: a.calls - b.calls, ns: a.ns - b.ns}
}

// timedBackend times CostBackend.Cost. It forwards every optional
// interface the engine probes on a backend, so wrapping changes neither
// the work the engine does nor the keys it stores costs under:
//
//   - FLOPsMonotone (enables the admission pre-filter),
//   - Epocher (part of every cost-store key),
//   - MultiCostBackend (timedMultiBackend, chosen by wrapBackend).
//
// An inner backend without FLOPsMonotone or Epocher behaves exactly as
// if the wrapper lacked them too: the engine treats a missing marker as
// false and a missing epoch as version 0, which is what the forwarding
// methods return.
type timedBackend struct {
	inner engine.CostBackend
	clock *layerClock
}

func (b *timedBackend) Name() string { return b.inner.Name() }

func (b *timedBackend) Cost(g *graph.Graph) (float64, error) {
	t := time.Now()
	defer b.clock.since(t)
	return b.inner.Cost(g)
}

func (b *timedBackend) FLOPsMonotone() bool {
	fm, ok := b.inner.(engine.FLOPsMonotone)
	return ok && fm.FLOPsMonotone()
}

func (b *timedBackend) Epoch() uint64 {
	if ep, ok := b.inner.(engine.Epocher); ok {
		return ep.Epoch()
	}
	return 0
}

// timedMultiBackend adds the MultiCostBackend methods, timing
// CostVector.
type timedMultiBackend struct {
	*timedBackend
	multi engine.MultiCostBackend
}

func (b timedMultiBackend) Metrics() []string { return b.multi.Metrics() }

func (b timedMultiBackend) CostVector(g *graph.Graph) ([]float64, error) {
	t := time.Now()
	defer b.clock.since(t)
	return b.multi.CostVector(g)
}

// wrapBackend times b's evaluations on clock.
func wrapBackend(b engine.CostBackend, clock *layerClock) engine.CostBackend {
	tb := &timedBackend{inner: b, clock: clock}
	if mb, ok := b.(engine.MultiCostBackend); ok {
		return timedMultiBackend{timedBackend: tb, multi: mb}
	}
	return tb
}

// backendModule names the package that prices for a backend: gpu,
// magnet or flops.
func backendModule(name string) string {
	switch {
	case strings.HasPrefix(name, "gpu"):
		return "gpu"
	case strings.HasPrefix(name, "magnet"):
		return "magnet"
	case strings.HasPrefix(name, "flops"):
		return "flops"
	}
	return "other"
}

// timedCache times a CostCache: total time in GetOrComputeVector, and
// separately the compute callbacks it runs, so the cache's own (self)
// time is total − compute and its hits are calls − computes.
type timedCache struct {
	inner   engine.CostCache
	total   layerClock
	compute layerClock
}

func (c *timedCache) GetOrComputeVector(backend string, epoch, sig uint64, compute func() ([]float64, error)) ([]float64, error) {
	t := time.Now()
	defer c.total.since(t)
	return c.inner.GetOrComputeVector(backend, epoch, sig, func() ([]float64, error) {
		t := time.Now()
		defer c.compute.since(t)
		return compute()
	})
}

// buildClock times Candidate.Build (graph construction: nn, prune and
// graph) and counts the layers built. Heap allocation is attributed
// only to calls no other build overlapped, since the runtime's
// allocation counter is process-wide.
type buildClock struct {
	clock    layerClock
	layers   atomic.Int64
	inflight atomic.Int64
	starts   atomic.Int64
	solo     atomic.Int64 // builds that ran alone
	soloB    atomic.Int64 // bytes those builds allocated
}

// wrap returns seq with every candidate's Build timed.
func (bc *buildClock) wrap(seq engine.CandidateSeq) engine.CandidateSeq {
	return func(yield func(engine.Candidate) bool) {
		seq(func(c engine.Candidate) bool {
			build := c.Build
			c.Build = func() (*graph.Graph, error) { return bc.build(build) }
			return yield(c)
		})
	}
}

func (bc *buildClock) build(f func() (*graph.Graph, error)) (*graph.Graph, error) {
	start := bc.starts.Add(1)
	alone := bc.inflight.Add(1) == 1
	var a0 uint64
	if alone {
		a0 = heapAllocs()
	}
	t := time.Now()
	g, err := f()
	bc.clock.since(t)
	if alone {
		a1 := heapAllocs()
		if bc.starts.Load() == start {
			bc.solo.Add(1)
			bc.soloB.Add(int64(a1 - a0))
		}
	}
	bc.inflight.Add(-1)
	if g != nil {
		bc.layers.Add(int64(len(g.Layers)))
	}
	return g, err
}

// heapAllocs reads the process's cumulative heap allocation in bytes.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

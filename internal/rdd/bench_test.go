package rdd

import (
	"fmt"
	"testing"

	"vitdyn/internal/pareto"
)

// benchCatalog builds a constructor-made catalog with an n-point frontier
// (costs and accuracies strictly increasing, so nothing is dominated).
func benchCatalog(b *testing.B, n int) *Catalog {
	b.Helper()
	paths := make([]Path, n)
	for i := range paths {
		paths[i] = Path{
			Label:    fmt.Sprintf("p%03d", i),
			Cost:     1 + float64(i),
			Accuracy: float64(i+1) / float64(n+1),
		}
	}
	c, err := NewCatalog("bench", paths)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkCatalogSelect measures the per-frame selection primitive —
// Simulate's hot loop calls it once per trace frame. Select scans Paths
// directly and must run allocation-free (0 allocs/op); before this
// change every call rebuilt a []pareto.Point.
func BenchmarkCatalogSelect(b *testing.B) {
	c := benchCatalog(b, 64)
	budget := c.Full().Cost * 0.75
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Select(budget); !ok {
			b.Fatal("selection failed")
		}
	}
}

// selectRebuilding is the pre-change implementation — rebuild the point
// slice on every call, then reduce — kept here as the baseline the
// allocation-free Select is measured against.
func selectRebuilding(c *Catalog, budget float64) (Path, bool) {
	pts := make([]pareto.Point, len(c.Paths))
	for i, p := range c.Paths {
		pts[i] = pareto.Point{Cost: p.Cost, Value: p.Accuracy, Tag: p.Label}
	}
	best, ok := pareto.BestValueUnderCost(pts, budget)
	if !ok {
		return Path{}, false
	}
	return Path{Label: best.Tag, Cost: best.Cost, Accuracy: best.Value}, true
}

// BenchmarkCatalogSelectRebuilding is the old per-call-allocation
// selection, for the delta in benchmark reports.
func BenchmarkCatalogSelectRebuilding(b *testing.B) {
	c := benchCatalog(b, 64)
	budget := c.Full().Cost * 0.75
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := selectRebuilding(c, budget); !ok {
			b.Fatal("selection failed")
		}
	}
}

// BenchmarkSimulate replays a full synthetic trace — the end-to-end path
// the Select optimization serves.
func BenchmarkSimulate(b *testing.B) {
	c := benchCatalog(b, 64)
	tr := SinusoidTrace(1000, c.Cheapest().Cost, c.Full().Cost*1.1, 120)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := c.Simulate(tr)
		if res.Completed == 0 {
			b.Fatal("no frames completed")
		}
	}
}

// BenchmarkSimulateWide is the case the SelectIndex exists for: a wide
// frontier (512 paths) times a long trace, where a linear per-frame
// scan pays frames × paths comparisons and the index pays
// frames × log(paths) plus one O(n log n) build.
func BenchmarkSimulateWide(b *testing.B) {
	c := benchCatalog(b, 512)
	tr := SinusoidTrace(4096, c.Cheapest().Cost, c.Full().Cost*1.1, 120)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := c.Simulate(tr)
		if res.Completed == 0 {
			b.Fatal("no frames completed")
		}
	}
}

// BenchmarkSimulateWideLinear is the same replay through the pre-index
// linear-scan loop (Select per frame), for the delta in bench reports.
func BenchmarkSimulateWideLinear(b *testing.B) {
	c := benchCatalog(b, 512)
	tr := SinusoidTrace(4096, c.Cheapest().Cost, c.Full().Cost*1.1, 120)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := simulateWith(c, tr, c.Select)
		if res.Completed == 0 {
			b.Fatal("no frames completed")
		}
	}
}

// BenchmarkSelectIndexBuild prices the per-replay index construction the
// fast path amortizes over the trace.
func BenchmarkSelectIndexBuild(b *testing.B) {
	c := benchCatalog(b, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ix := c.NewSelectIndex(); len(ix.thresholds) == 0 {
			b.Fatal("empty index")
		}
	}
}

// BenchmarkReplayPanel measures the one-pass kernel against the
// per-policy reference loops on the /v1/replay shape: 20 000 frames of
// each generator on the catalog-relative budget scale, frontiers of 8
// and 80 paths, the default three-policy panel and the panel plus a
// hysteresis:4 controller. The fused kernel's allocations are all
// set-up (TestReplayFrameLoopAllocFree pins the frame loop at 0). The
// reference calls its per-frame selector through a function value,
// which costs it up to ~15% against the original loops, so the
// fused/reference ratio slightly overstates the gain.
func BenchmarkReplayPanel(b *testing.B) {
	const frames = 20000
	for _, n := range []int{8, 80} {
		c := benchCatalog(b, n)
		lo, hi := c.DefaultBudgetScale()
		traces := []struct {
			name string
			tr   Trace
		}{
			{"sinusoid", SinusoidTrace(frames, lo, hi, 500)},
			{"step", StepTrace(frames, lo, hi, 100)},
			{"bursty", BurstyTrace(frames, lo, hi, 0.35, 7)},
		}
		panel := []Policy{DynamicPolicy(), StaticPolicy(c.Full()), StaticPolicy(c.Cheapest())}
		panels := []struct {
			name string
			pols []Policy
		}{
			{"default", panel},
			{"hyst4", append(panel[:len(panel):len(panel)], HysteresisPolicy(4))},
		}
		impls := []struct {
			name   string
			replay func(*Catalog, Trace, []Policy) ([]SimResult, error)
		}{
			{"fused", (*Catalog).Replay},
			{"reference", replayRef},
		}
		for _, tr := range traces {
			for _, p := range panels {
				for _, impl := range impls {
					b.Run(fmt.Sprintf("paths=%d/%s/%s/%s", n, tr.name, p.name, impl.name), func(b *testing.B) {
						b.ReportAllocs()
						for i := 0; i < b.N; i++ {
							if _, err := impl.replay(c, tr.tr, p.pols); err != nil {
								b.Fatal(err)
							}
						}
						b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*frames), "ns/frame")
					})
				}
			}
		}
	}
}

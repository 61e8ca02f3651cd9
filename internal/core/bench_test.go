package core

import (
	"context"
	"testing"

	"vitdyn/internal/engine"
)

// BenchmarkCatalogCold measures a cold catalog build end to end — graph
// build, pre-filter, store lookup, backend pricing and frontier — for
// mid-step pruning sweeps. Each op builds one spec's catalog on every
// backend into a fresh store, so nothing carries over between ops.
func BenchmarkCatalogCold(b *testing.B) {
	backends := []engine.CostBackend{TargetGPU(), TargetAcceleratorE(), TargetAcceleratorEEnergy(), TargetFLOPs()}
	specs := []struct {
		name string
		seq  func() (string, engine.CandidateSeq, error)
	}{
		{"SegFormer-ADE-288", func() (string, engine.CandidateSeq, error) { return SegFormerCandidateSeq("ADE", 288) }},
		{"SegFormer-City-288", func() (string, engine.CandidateSeq, error) { return SegFormerCandidateSeq("City", 288) }},
		{"Swin-Tiny-136", func() (string, engine.CandidateSeq, error) { return SwinCandidateSeq("Tiny", 136) }},
		{"Swin-Small-136", func() (string, engine.CandidateSeq, error) { return SwinCandidateSeq("Small", 136) }},
		{"Swin-Base-136", func() (string, engine.CandidateSeq, error) { return SwinCandidateSeq("Base", 136) }},
	}
	ctx := context.Background()
	for _, sp := range specs {
		b.Run(sp.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				store := engine.NewStore(0)
				for _, be := range backends {
					model, seq, err := sp.seq()
					if err != nil {
						b.Fatal(err)
					}
					if _, _, err := engine.NewWithCache(be, 2, store).CatalogFromSeq(ctx, model, seq, engine.StreamOptions{}); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

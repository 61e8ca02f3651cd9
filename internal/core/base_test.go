package core

import (
	"reflect"
	"sync"
	"testing"

	"vitdyn/internal/engine"
	"vitdyn/internal/graph"
	"vitdyn/internal/nn"
	"vitdyn/internal/prune"
)

// buildAllConcurrently builds every candidate from several goroutines at
// once, each walking the slice from its own offset, so the first build of
// a depth group races other builds of the same group on its shared base.
func buildAllConcurrently(t *testing.T, cands []engine.Candidate) [][]*graph.Graph {
	t.Helper()
	const goroutines = 4
	out := make([][]*graph.Graph, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for w := range out {
		out[w] = make([]*graph.Graph, len(cands))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range cands {
				k := (i + w*len(cands)/goroutines) % len(cands)
				g, err := cands[k].Build()
				if err != nil {
					errs[w] = err
					return
				}
				out[w][k] = g
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestSweepCandidatesDeriveFromSharedBases builds the pruning sweeps'
// candidates concurrently — every depth group's candidates share one
// lazily built base — and checks each graph against a standalone
// ApplySegFormer/ApplySwin build of the same path.
func TestSweepCandidatesDeriveFromSharedBases(t *testing.T) {
	_, cands, err := SegFormerCandidates("ADE", 256)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := nn.SegFormerB("B2", 150)
	if err != nil {
		t.Fatal(err)
	}
	paths := prune.SegFormerSweep(cfg, 256)
	if len(paths) != len(cands) {
		t.Fatalf("%d candidates for %d sweep paths", len(cands), len(paths))
	}
	want := make([]*graph.Graph, len(paths))
	for i, p := range paths {
		if want[i], err = prune.ApplySegFormer(cfg, 512, 512, p); err != nil {
			t.Fatal(err)
		}
	}
	for _, built := range buildAllConcurrently(t, cands) {
		for i, p := range paths {
			if cands[i].Label != p.Label || !reflect.DeepEqual(built[i], want[i]) {
				t.Fatalf("SegFormer candidate %d (%s) differs from ApplySegFormer(%s)", i, cands[i].Label, p.Label)
			}
		}
	}

	_, cands, err = SwinCandidates("Tiny", 128)
	if err != nil {
		t.Fatal(err)
	}
	scfg, err := nn.SwinVariant("Tiny", 150)
	if err != nil {
		t.Fatal(err)
	}
	spaths := prune.SwinSweep(scfg, 128)
	if len(spaths) != len(cands) {
		t.Fatalf("%d candidates for %d sweep paths", len(cands), len(spaths))
	}
	want = make([]*graph.Graph, len(spaths))
	for i, p := range spaths {
		if want[i], err = prune.ApplySwin(scfg, 512, 512, p); err != nil {
			t.Fatal(err)
		}
	}
	for _, built := range buildAllConcurrently(t, cands) {
		for i, p := range spaths {
			if cands[i].Label != p.Label || !reflect.DeepEqual(built[i], want[i]) {
				t.Fatalf("Swin candidate %d (%s) differs from ApplySwin(%s)", i, cands[i].Label, p.Label)
			}
		}
	}
}

package prune

import (
	"reflect"
	"sync"
	"testing"

	"vitdyn/internal/graph"
	"vitdyn/internal/nn"
)

// sameGraph fails the test unless got is deeply equal to want and shares
// its signature.
func sameGraph(t *testing.T, label string, want, got *graph.Graph) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%s: derived graph differs from the whole-graph reference", label)
	}
	if want.Signature() != got.Signature() {
		t.Fatalf("%s: signature %x, reference %x", label, got.Signature(), want.Signature())
	}
}

// TestSegFormerDeriveMatchesReference builds every sweep point of the
// ADE and City SegFormer sweeps at step 64 both ways — the whole-graph
// reference, and Derive from one base per depth group as the catalog
// builders do — and requires identical graphs. ApplySegFormer, the two
// steps composed, is checked on each group's first path.
func TestSegFormerDeriveMatchesReference(t *testing.T) {
	for _, ds := range []struct {
		name          string
		classes, size int
	}{{"ADE", 150, 512}, {"City", 19, 1024}} {
		cfg, err := nn.SegFormerB("B2", ds.classes)
		if err != nil {
			t.Fatal(err)
		}
		var base *SegFormerBase
		groups, n := 0, 0
		for p := range SegFormerSweepSeq(cfg, 64) {
			first := base == nil || base.blocks != p.EncoderBlocks
			if first {
				if base, err = NewSegFormerBase(cfg, ds.size, ds.size, p.EncoderBlocks); err != nil {
					t.Fatal(err)
				}
				groups++
			}
			want, err := refApplySegFormer(cfg, ds.size, ds.size, p)
			if err != nil {
				t.Fatal(err)
			}
			derived, err := base.Derive(p)
			if err != nil {
				t.Fatal(err)
			}
			sameGraph(t, ds.name+"/"+p.Label, want, derived)
			if first {
				applied, err := ApplySegFormer(cfg, ds.size, ds.size, p)
				if err != nil {
					t.Fatal(err)
				}
				sameGraph(t, ds.name+"/"+p.Label+" (ApplySegFormer)", want, applied)
			}
			n++
		}
		if n != 1032 || groups != 8 {
			t.Fatalf("%s: %d paths in %d depth groups, want 1032 in 8", ds.name, n, groups)
		}
	}
}

// TestSwinDeriveMatchesReference is the Swin counterpart, over every
// sweep point of Tiny, Small and Base at step 16.
func TestSwinDeriveMatchesReference(t *testing.T) {
	for _, v := range []string{"Tiny", "Small", "Base"} {
		cfg, err := nn.SwinVariant(v, 150)
		if err != nil {
			t.Fatal(err)
		}
		var base *SwinBase
		n := 0
		for p := range SwinSweepSeq(cfg, 16) {
			first := base == nil || base.stage2 != p.Stage2Blocks || base.stage3 != p.Stage3Blocks
			if first {
				if base, err = NewSwinBase(cfg, 512, 512, p.Stage2Blocks, p.Stage3Blocks); err != nil {
					t.Fatal(err)
				}
			}
			want, err := refApplySwin(cfg, 512, 512, p)
			if err != nil {
				t.Fatal(err)
			}
			derived, err := base.Derive(p)
			if err != nil {
				t.Fatal(err)
			}
			sameGraph(t, v+"/"+p.Label, want, derived)
			if first {
				applied, err := ApplySwin(cfg, 512, 512, p)
				if err != nil {
					t.Fatal(err)
				}
				sameGraph(t, v+"/"+p.Label+" (ApplySwin)", want, applied)
			}
			n++
		}
		if n == 0 {
			t.Fatalf("%s: empty sweep", v)
		}
	}
}

// TestDeriveConcurrentLeavesBaseUnchanged derives one depth group's
// paths from many goroutines at once, each path many times, and checks
// every result against the reference and the shared bases against
// snapshots taken before.
func TestDeriveConcurrentLeavesBaseUnchanged(t *testing.T) {
	cfg := b2cfg(t)
	var group []SegFormerPath
	for p := range SegFormerSweepSeq(cfg, 64) {
		if len(group) > 0 && p.EncoderBlocks != group[0].EncoderBlocks {
			break
		}
		group = append(group, p)
	}
	base, err := NewSegFormerBase(cfg, 512, 512, group[0].EncoderBlocks)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]*graph.Graph, len(group))
	for i, p := range group {
		if want[i], err = refApplySegFormer(cfg, 512, 512, p); err != nil {
			t.Fatal(err)
		}
	}

	scfg, err := nn.SwinVariant("Tiny", 150)
	if err != nil {
		t.Fatal(err)
	}
	// The first Swin group prunes fpn_bottleneck far enough to drop
	// upsample layers from the clone.
	var sgroup []SwinPath
	for p := range SwinSweepSeq(scfg, 64) {
		if len(sgroup) > 0 && (p.Stage2Blocks != sgroup[0].Stage2Blocks || p.Stage3Blocks != sgroup[0].Stage3Blocks) {
			break
		}
		sgroup = append(sgroup, p)
	}
	sbase, err := NewSwinBase(scfg, 512, 512, sgroup[0].Stage2Blocks, sgroup[0].Stage3Blocks)
	if err != nil {
		t.Fatal(err)
	}
	swant := make([]*graph.Graph, len(sgroup))
	for i, p := range sgroup {
		if swant[i], err = refApplySwin(scfg, 512, 512, p); err != nil {
			t.Fatal(err)
		}
	}

	before, sbefore := base.g.Clone(), sbase.g.Clone()
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				for i := range group {
					// Each goroutine walks the group from a different offset.
					k := (i + w*len(group)/goroutines) % len(group)
					g, err := base.Derive(group[k])
					if err != nil || !reflect.DeepEqual(g, want[k]) {
						errs <- group[k].Label
						return
					}
				}
				for k := range sgroup {
					g, err := sbase.Derive(sgroup[k])
					if err != nil || !reflect.DeepEqual(g, swant[k]) {
						errs <- sgroup[k].Label
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for label := range errs {
		t.Errorf("concurrent derivation of %s differs from the reference", label)
	}
	if !reflect.DeepEqual(base.g, before) {
		t.Fatal("deriving mutated the shared SegFormer base")
	}
	if !reflect.DeepEqual(sbase.g, sbefore) {
		t.Fatal("deriving mutated the shared Swin base")
	}
}

func TestDeriveRejectsOtherDepths(t *testing.T) {
	cfg := b2cfg(t)
	full := FullSegFormerPath(cfg)
	base, err := NewSegFormerBase(cfg, 512, 512, full.EncoderBlocks)
	if err != nil {
		t.Fatal(err)
	}
	other := full
	other.EncoderBlocks[2]--
	if _, err := base.Derive(other); err == nil {
		t.Error("SegFormer base derived a path with other encoder blocks")
	}
	bad := full
	bad.FuseInCh = 0
	if _, err := base.Derive(bad); err == nil {
		t.Error("SegFormer base derived an invalid path")
	}
	if _, err := NewSegFormerBase(cfg, 512, 512, [4]int{0, 1, 1, 1}); err == nil {
		t.Error("NewSegFormerBase accepted a stage with no blocks")
	}

	scfg, err := nn.SwinVariant("Tiny", 150)
	if err != nil {
		t.Fatal(err)
	}
	sfull := FullSwinPath(scfg)
	sbase, err := NewSwinBase(scfg, 512, 512, sfull.Stage2Blocks, sfull.Stage3Blocks)
	if err != nil {
		t.Fatal(err)
	}
	sother := sfull
	sother.Stage3Blocks--
	if _, err := sbase.Derive(sother); err == nil {
		t.Error("Swin base derived a path with other stage depths")
	}
	if _, err := NewSwinBase(scfg, 512, 512, scfg.Depths[2]+1, 1); err == nil {
		t.Error("NewSwinBase accepted too many stage-2 blocks")
	}
}

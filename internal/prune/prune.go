// Package prune implements the paper's alternative-execution-path machinery
// (Section V): bypassing encoder blocks and reducing input channels of the
// critical decoder layers in pretrained SegFormer and Swin models, with
// skipped computation propagated backwards through the decoder exactly as
// the paper describes (Section V-A).
//
// A path is built in two steps. The base (NewSegFormerBase, NewSwinBase)
// is the nn graph for the path's encoder depths; Derive clones a base and
// patches the decoder layers whose channels the path prunes. A sweep has
// many paths per depth set (1032 SegFormer paths at step 64 share 8 depth
// sets), so its callers build each base once and derive every path of the
// group from it. A base is never mutated, so concurrent derivations may
// share it. ApplySegFormer and ApplySwin are the two steps composed, for
// one-off paths.
package prune

import (
	"fmt"
	"strconv"

	"vitdyn/internal/graph"
	"vitdyn/internal/nn"
)

// SegFormerPath is one SegFormer execution-path configuration: how many
// encoder blocks run in each stage and how many input channels the three
// critical decoder layers consume. A zero channel field means "unpruned".
type SegFormerPath struct {
	Label string
	// EncoderBlocks kept per stage; the paper bypasses trailing blocks.
	EncoderBlocks [4]int
	// FuseInCh is the Conv2DFuse input-channel count (<= 4*decoderDim).
	FuseInCh int
	// PredInCh is the Conv2DPred input-channel count (<= decoderDim).
	PredInCh int
	// DecodeLinear0Ch is the DecodeLinear0 input-channel count (<= stage-0
	// width). Reducing it cannot skip earlier computation (stage-0 output
	// also feeds stage 1), but it still shrinks the decoder layer itself.
	DecodeLinear0Ch int
}

// FullSegFormerPath returns the unpruned configuration for a variant.
func FullSegFormerPath(cfg nn.SegFormerConfig) SegFormerPath {
	return SegFormerPath{
		Label:           cfg.Variant,
		EncoderBlocks:   cfg.Depths,
		FuseInCh:        4 * cfg.DecoderDim,
		PredInCh:        cfg.DecoderDim,
		DecodeLinear0Ch: cfg.EmbedDims[0],
	}
}

// Validate checks the path against its base configuration.
func (p SegFormerPath) Validate(cfg nn.SegFormerConfig) error {
	if err := validateSegFormerBlocks(cfg, p.EncoderBlocks); err != nil {
		return err
	}
	if p.FuseInCh < 1 || p.FuseInCh > 4*cfg.DecoderDim {
		return fmt.Errorf("prune: fuse channels %d out of range 1..%d", p.FuseInCh, 4*cfg.DecoderDim)
	}
	if p.PredInCh < 1 || p.PredInCh > cfg.DecoderDim {
		return fmt.Errorf("prune: pred channels %d out of range 1..%d", p.PredInCh, cfg.DecoderDim)
	}
	if p.DecodeLinear0Ch < 1 || p.DecodeLinear0Ch > cfg.EmbedDims[0] {
		return fmt.Errorf("prune: DecodeLinear0 channels %d out of range 1..%d", p.DecodeLinear0Ch, cfg.EmbedDims[0])
	}
	return nil
}

// validateSegFormerBlocks checks encoder blocks kept per stage against
// the base configuration's depths.
func validateSegFormerBlocks(cfg nn.SegFormerConfig, blocks [4]int) error {
	for s := 0; s < 4; s++ {
		if blocks[s] < 1 || blocks[s] > cfg.Depths[s] {
			return fmt.Errorf("prune: stage %d blocks %d out of range 1..%d", s, blocks[s], cfg.Depths[s])
		}
	}
	return nil
}

// SegFormerBase is the graph every SegFormer path with one encoder-depth
// set starts from: nn.SegFormer on the configuration with those depths,
// before any decoder patch. Paths that share their encoder blocks differ
// only in a few decoder layers, so a sweep builds one base per depth set
// and derives each path from it with Derive. Derive works on a clone, so
// a base is never mutated and may serve concurrent derivations.
type SegFormerBase struct {
	cfg    nn.SegFormerConfig
	blocks [4]int
	g      *graph.Graph
}

// NewSegFormerBase builds the base for paths that keep blocks encoder
// blocks per stage.
func NewSegFormerBase(cfg nn.SegFormerConfig, imgH, imgW int, blocks [4]int) (*SegFormerBase, error) {
	if err := validateSegFormerBlocks(cfg, blocks); err != nil {
		return nil, err
	}
	pruned := cfg
	pruned.Depths = blocks
	g, err := nn.SegFormer(pruned, imgH, imgW)
	if err != nil {
		return nil, err
	}
	return &SegFormerBase{cfg: cfg, blocks: blocks, g: g}, nil
}

// ApplySegFormer builds the pruned SegFormer graph for the path: a base
// for its encoder blocks (NewSegFormerBase), then the path's decoder
// patches (SegFormerBase.Derive).
func ApplySegFormer(cfg nn.SegFormerConfig, imgH, imgW int, p SegFormerPath) (*graph.Graph, error) {
	b, err := NewSegFormerBase(cfg, imgH, imgW, p.EncoderBlocks)
	if err != nil {
		return nil, err
	}
	return b.Derive(p)
}

// Derive returns the path's graph: a clone of the base with the path's
// decoder patches applied. The path must keep the base's encoder blocks.
//
// Backward propagation of skipped computation follows Section V-A:
//
//   - Bypassed encoder blocks disappear entirely (the paper bypasses the
//     trailing blocks of a stage; which blocks are removed does not change
//     the cost model). The base already omits them.
//   - Conv2DFuse input channels are pruned from the end of the concatenated
//     per-stage features. Which channels are removed does not matter for
//     accuracy (the paper tested first/last/smallest), and encoder-side
//     computation cannot be skipped because every encoder stage feeds the
//     next; the decode linears keep running in full, matching the paper's
//     Table III FLOPs accounting.
//   - Conv2DPred input channels propagate backwards through the decoder
//     (ReLU, BatchNorm and Conv2DFuse outputs shrink with them), since
//     decoder layers have a single consumer.
func (b *SegFormerBase) Derive(p SegFormerPath) (*graph.Graph, error) {
	if p.EncoderBlocks != b.blocks {
		return nil, fmt.Errorf("prune: path %q keeps blocks %v, base has %v", p.Label, p.EncoderBlocks, b.blocks)
	}
	if err := p.Validate(b.cfg); err != nil {
		return nil, err
	}
	g := b.g.Clone()
	g.Name += "[" + p.Label + "]"

	d := b.cfg.DecoderDim

	// --- Conv2DPred pruning propagates backwards through the decoder. ---
	fuseOut := p.PredInCh
	if pred := g.Find("dec.conv2dpred"); pred != nil {
		pred.InC = p.PredInCh
	}
	if bn := g.Find("dec.fuse.bn"); bn != nil {
		bn.Elems = bn.Elems / d * fuseOut
		bn.Channels = fuseOut
	}
	if relu := g.Find("dec.fuse.relu"); relu != nil {
		relu.Elems = relu.Elems / d * fuseOut
	}

	// --- Conv2DFuse input pruning. ---
	// The fuse convolution reads a trailing-pruned subset of the
	// concatenated per-stage features. The decode linears still execute in
	// full: their outputs also parameterize the kept channels, and (as the
	// paper notes) encoder-side computation cannot be skipped because every
	// encoder stage feeds the next. This matches the paper's Table III
	// accounting (B2f: 60% fewer FLOPs with Conv2DFuse under 25% of them).
	if fuse := g.Find("dec.conv2dfuse"); fuse != nil {
		fuse.InC = p.FuseInCh
		fuse.OutC = fuseOut
	}
	if cat := g.Find("dec.concat"); cat != nil {
		cat.Elems = cat.Elems / (4 * d) * p.FuseInCh
	}

	// --- DecodeLinear0 input channels. ---
	if dl0 := g.Find("dec.linear0"); dl0 != nil && p.DecodeLinear0Ch < dl0.InF {
		dl0.InF = p.DecodeLinear0Ch
	}

	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// SwinPath is a Swin execution-path configuration: blocks kept in stages 2
// and 3 (the deep stages the paper bypasses) and the fpn_bottleneck input
// channel count.
type SwinPath struct {
	Label           string
	Stage2Blocks    int
	Stage3Blocks    int
	FPNBottleneckCh int // <= 4*decoderChannels
}

// FullSwinPath returns the unpruned configuration.
func FullSwinPath(cfg nn.SwinConfig) SwinPath {
	return SwinPath{
		Label:           cfg.Variant,
		Stage2Blocks:    cfg.Depths[2],
		Stage3Blocks:    cfg.Depths[3],
		FPNBottleneckCh: 4 * cfg.DecoderChannels,
	}
}

// Validate checks the path against its base configuration.
func (p SwinPath) Validate(cfg nn.SwinConfig) error {
	if err := validateSwinBlocks(cfg, p.Stage2Blocks, p.Stage3Blocks); err != nil {
		return err
	}
	if p.FPNBottleneckCh < 1 || p.FPNBottleneckCh > 4*cfg.DecoderChannels {
		return fmt.Errorf("prune: fpn channels %d out of range 1..%d", p.FPNBottleneckCh, 4*cfg.DecoderChannels)
	}
	return nil
}

// validateSwinBlocks checks the blocks kept in stages 2 and 3 against
// the base configuration's depths.
func validateSwinBlocks(cfg nn.SwinConfig, stage2, stage3 int) error {
	if stage2 < 1 || stage2 > cfg.Depths[2] {
		return fmt.Errorf("prune: stage-2 blocks %d out of range 1..%d", stage2, cfg.Depths[2])
	}
	if stage3 < 1 || stage3 > cfg.Depths[3] {
		return fmt.Errorf("prune: stage-3 blocks %d out of range 1..%d", stage3, cfg.Depths[3])
	}
	return nil
}

// SwinBase is the graph every Swin path with one (stage-2, stage-3)
// depth pair starts from: nn.Swin on the configuration with those
// depths, before the fpn_bottleneck patch. Like SegFormerBase it is
// never mutated: Derive works on a clone.
type SwinBase struct {
	cfg            nn.SwinConfig
	stage2, stage3 int
	g              *graph.Graph
}

// NewSwinBase builds the base for paths that keep stage2 and stage3
// blocks in the two deep stages.
func NewSwinBase(cfg nn.SwinConfig, imgH, imgW, stage2, stage3 int) (*SwinBase, error) {
	if err := validateSwinBlocks(cfg, stage2, stage3); err != nil {
		return nil, err
	}
	pruned := cfg
	pruned.Depths[2] = stage2
	pruned.Depths[3] = stage3
	g, err := nn.Swin(pruned, imgH, imgW)
	if err != nil {
		return nil, err
	}
	return &SwinBase{cfg: cfg, stage2: stage2, stage3: stage3, g: g}, nil
}

// ApplySwin builds the pruned Swin graph for the path: a base for its
// stage depths (NewSwinBase), then the fpn_bottleneck patch
// (SwinBase.Derive).
func ApplySwin(cfg nn.SwinConfig, imgH, imgW int, p SwinPath) (*graph.Graph, error) {
	b, err := NewSwinBase(cfg, imgH, imgW, p.Stage2Blocks, p.Stage3Blocks)
	if err != nil {
		return nil, err
	}
	return b.Derive(p)
}

// Derive returns the path's graph: a clone of the base with the path's
// fpn_bottleneck input channels. Pruned channels remove trailing slices
// of the concatenated FPN levels; a fully removed level drops its
// upsample (the FPN convs still run — their outputs feed the multi-scale
// auxiliary paths). The path must keep the base's stage depths.
func (b *SwinBase) Derive(p SwinPath) (*graph.Graph, error) {
	if p.Stage2Blocks != b.stage2 || p.Stage3Blocks != b.stage3 {
		return nil, fmt.Errorf("prune: path %q keeps stage-2/3 blocks %d/%d, base has %d/%d",
			p.Label, p.Stage2Blocks, p.Stage3Blocks, b.stage2, b.stage3)
	}
	if err := p.Validate(b.cfg); err != nil {
		return nil, err
	}
	g := b.g.Clone()
	g.Name += "[" + p.Label + "]"

	ch := b.cfg.DecoderChannels
	if fpn := g.Find("dec.fpnbottleneck"); fpn != nil {
		fpn.InC = p.FPNBottleneckCh
	}
	if cat := g.Find("dec.fuse.concat"); cat != nil {
		cat.Elems = cat.Elems / (4 * ch) * p.FPNBottleneckCh
	}
	// Trailing concat slices come from the deepest levels; drop upsamples of
	// fully pruned levels.
	for s := 3; s >= 1; s-- {
		if p.FPNBottleneckCh <= s*ch {
			name := "dec.fuse.up" + strconv.Itoa(s)
			keep := g.Layers[:0]
			for i := range g.Layers {
				if g.Layers[i].Name == name {
					continue
				}
				keep = append(keep, g.Layers[i])
			}
			g.Layers = keep
		}
	}

	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// SegFormerSweepSeq enumerates the joint sweep the paper explores for
// Fig. 10 — trailing-block bypass per stage combined with
// Conv2DFuse/Conv2DPred channel reduction — as a push generator, so the
// streaming catalog pipeline consumes configurations one at a time
// without materializing the sweep. Channel counts step in units of step
// (the paper prunes in vector-width multiples). Enumeration order is
// deterministic; the generator stops when yield returns false.
func SegFormerSweepSeq(cfg nn.SegFormerConfig, step int) func(yield func(SegFormerPath) bool) {
	if step <= 0 {
		step = 128
	}
	return func(yield func(SegFormerPath) bool) {
		full := FullSegFormerPath(cfg)
		blockChoices := [][4]int{full.EncoderBlocks}
		// Bypass up to one trailing block in each of stages 0-2 and up to two in
		// the deepest-redundancy stage 2 (the combinations Table III exercises).
		for _, d0 := range []int{0, 1} {
			for _, d1 := range []int{0, 1} {
				for _, d2 := range []int{0, 1} {
					if d0 == 0 && d1 == 0 && d2 == 0 {
						continue
					}
					b := full.EncoderBlocks
					b[0] -= d0
					b[1] -= d1
					b[2] -= d2
					if b[0] >= 1 && b[1] >= 1 && b[2] >= 1 {
						blockChoices = append(blockChoices, b)
					}
				}
			}
		}
		for _, blocks := range blockChoices {
			for fuse := 4 * cfg.DecoderDim; fuse >= cfg.DecoderDim/2; fuse -= step {
				for _, pred := range []int{cfg.DecoderDim, cfg.DecoderDim - 32, cfg.DecoderDim - 64} {
					p := SegFormerPath{
						Label:           fmt.Sprintf("b%d%d%d%d-f%d-p%d", blocks[0], blocks[1], blocks[2], blocks[3], fuse, pred),
						EncoderBlocks:   blocks,
						FuseInCh:        fuse,
						PredInCh:        pred,
						DecodeLinear0Ch: cfg.EmbedDims[0],
					}
					if p.Validate(cfg) == nil && !yield(p) {
						return
					}
				}
			}
		}
	}
}

// SegFormerSweep materializes SegFormerSweepSeq into a slice, for callers
// that need the whole configuration set at once.
func SegFormerSweep(cfg nn.SegFormerConfig, step int) []SegFormerPath {
	var out []SegFormerPath
	for p := range SegFormerSweepSeq(cfg, step) {
		out = append(out, p)
	}
	return out
}

// SwinSweepSeq enumerates stage-2/3 block bypass with fpn channel
// reduction as a push generator (see SegFormerSweepSeq).
func SwinSweepSeq(cfg nn.SwinConfig, step int) func(yield func(SwinPath) bool) {
	if step <= 0 {
		step = 256
	}
	return func(yield func(SwinPath) bool) {
		for s2 := cfg.Depths[2]; s2 >= cfg.Depths[2]-3 && s2 >= 1; s2-- {
			for s3 := cfg.Depths[3]; s3 >= 1; s3-- {
				for fpn := 4 * cfg.DecoderChannels; fpn >= 2*cfg.DecoderChannels; fpn -= step {
					p := SwinPath{
						Label:           fmt.Sprintf("s2_%d-s3_%d-f%d", s2, s3, fpn),
						Stage2Blocks:    s2,
						Stage3Blocks:    s3,
						FPNBottleneckCh: fpn,
					}
					if p.Validate(cfg) == nil && !yield(p) {
						return
					}
				}
			}
		}
	}
}

// SwinSweep materializes SwinSweepSeq into a slice.
func SwinSweep(cfg nn.SwinConfig, step int) []SwinPath {
	var out []SwinPath
	for p := range SwinSweepSeq(cfg, step) {
		out = append(out, p)
	}
	return out
}

// TableIII returns the paper's named SegFormer ADE B2 configurations
// (Table III), from the full model B2 down to B2f.
func TableIII() []SegFormerPath {
	mk := func(label string, blocks [4]int, fuse int) SegFormerPath {
		return SegFormerPath{
			Label:           label,
			EncoderBlocks:   blocks,
			FuseInCh:        fuse,
			PredInCh:        768,
			DecodeLinear0Ch: 64,
		}
	}
	return []SegFormerPath{
		mk("B2", [4]int{3, 4, 6, 3}, 3072),
		mk("B2a", [4]int{3, 4, 6, 3}, 1920),
		mk("B2b", [4]int{3, 4, 6, 3}, 1664),
		mk("B2c", [4]int{2, 4, 6, 3}, 1408),
		mk("B2d", [4]int{2, 3, 6, 3}, 1024),
		mk("B2e", [4]int{2, 3, 5, 3}, 896),
		mk("B2f", [4]int{2, 3, 5, 3}, 512),
	}
}

package prune

import (
	"fmt"

	"vitdyn/internal/graph"
	"vitdyn/internal/nn"
)

// refApplySegFormer and refApplySwin are the whole-graph builders as they
// were before paths were derived from shared bases: every call runs the
// nn builder on the pruned configuration and patches the result. The
// equivalence tests pin the base-and-derive builders to them.

func refApplySegFormer(cfg nn.SegFormerConfig, imgH, imgW int, p SegFormerPath) (*graph.Graph, error) {
	if err := p.Validate(cfg); err != nil {
		return nil, err
	}
	pruned := cfg
	pruned.Depths = p.EncoderBlocks
	g, err := nn.SegFormer(pruned, imgH, imgW)
	if err != nil {
		return nil, err
	}
	g.Name = fmt.Sprintf("%s[%s]", g.Name, p.Label)

	d := cfg.DecoderDim

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

	if fuse := g.Find("dec.conv2dfuse"); fuse != nil {
		fuse.InC = p.FuseInCh
		fuse.OutC = fuseOut
	}
	if cat := g.Find("dec.concat"); cat != nil {
		cat.Elems = cat.Elems / (4 * d) * p.FuseInCh
	}

	if dl0 := g.Find("dec.linear0"); dl0 != nil && p.DecodeLinear0Ch < dl0.InF {
		dl0.InF = p.DecodeLinear0Ch
	}

	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

func refApplySwin(cfg nn.SwinConfig, imgH, imgW int, p SwinPath) (*graph.Graph, error) {
	if err := p.Validate(cfg); err != nil {
		return nil, err
	}
	pruned := cfg
	pruned.Depths[2] = p.Stage2Blocks
	pruned.Depths[3] = p.Stage3Blocks
	g, err := nn.Swin(pruned, imgH, imgW)
	if err != nil {
		return nil, err
	}
	g.Name = fmt.Sprintf("%s[%s]", g.Name, p.Label)

	ch := cfg.DecoderChannels
	if fpn := g.Find("dec.fpnbottleneck"); fpn != nil {
		fpn.InC = p.FPNBottleneckCh
	}
	if cat := g.Find("dec.fuse.concat"); cat != nil {
		cat.Elems = cat.Elems / (4 * ch) * p.FPNBottleneckCh
	}
	for s := 3; s >= 1; s-- {
		if p.FPNBottleneckCh <= s*ch {
			name := fmt.Sprintf("dec.fuse.up%d", s)
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

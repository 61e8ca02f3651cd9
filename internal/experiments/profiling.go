// Package experiments regenerates every table and figure of the paper's
// evaluation from the substrates in this repository. Each Fig*/Table*
// function returns structured rows (consumed by the cmd/ tools and the
// root benchmark harness) and can render itself as text.
package experiments

import (
	"fmt"

	"vitdyn/internal/accuracy"
	"vitdyn/internal/engine"
	"vitdyn/internal/flops"
	"vitdyn/internal/gpu"
	"vitdyn/internal/graph"
	"vitdyn/internal/nn"
	"vitdyn/internal/report"
)

// Table1Row is one model-overview row (paper Table I).
type Table1Row struct {
	Model   string
	Task    string
	MParams float64
	Dataset string
	Input   string
	GFLOPs  float64
	Metric  float64 // mIoU (SS) or AP (OD) or top-1
}

// Table1ModelOverview rebuilds Table I from the model zoo.
func Table1ModelOverview() ([]Table1Row, error) {
	rows := []Table1Row{}
	add := func(g *graph.Graph, task, dataset, input string, metric float64) {
		rows = append(rows, Table1Row{
			Model:   g.Name,
			Task:    task,
			MParams: float64(g.TotalParams()) / 1e6,
			Dataset: dataset,
			Input:   input,
			GFLOPs:  float64(g.TotalMACs()) / 1e9,
			Metric:  metric,
		})
	}
	segADE, err := buildSegFormer("B2", "ADE", 512, 512)
	if err != nil {
		return nil, err
	}
	segADE.Name = "SegFormer ADE B2"
	add(segADE, "SS", "ADE20K", "512x512", accuracy.SegFormerADEB2)

	segCity, err := buildSegFormer("B2", "City", 1024, 1024)
	if err != nil {
		return nil, err
	}
	segCity.Name = "SegFormer City B2"
	add(segCity, "SS", "Cityscapes", "1024x1024", accuracy.SegFormerCityB2)

	for _, v := range []struct {
		variant string
		miou    float64
	}{{"Tiny", accuracy.SwinTiny}, {"Small", accuracy.SwinSmall}, {"Base", accuracy.SwinBase}} {
		g := nn.MustSwin(v.variant, 150, 512, 512)
		g.Name = "Swin " + v.variant
		add(g, "SS", "ADE20K", "512x512", v.miou)
	}
	for _, v := range []struct {
		variant nn.DETRVariant
		ap      float64
	}{
		{nn.DETR, accuracy.DETRAP},
		{nn.DABDETR, accuracy.DABDETRAP},
		{nn.AnchorDETR, accuracy.AnchorDETRAP},
		{nn.ConditionalDETR, accuracy.ConditionalDETRAP},
	} {
		g := nn.MustDETR(v.variant, 800, 1216)
		add(g, "OD", "COCO-2017", "800x1216", v.ap)
	}
	return rows, nil
}

func buildSegFormer(variant, dataset string, h, w int) (*graph.Graph, error) {
	classes := 150
	if dataset == "City" {
		classes = 19
	}
	cfg, err := nn.SegFormerB(variant, classes)
	if err != nil {
		return nil, err
	}
	return nn.SegFormer(cfg, h, w)
}

// RenderTable1 renders Table I.
func RenderTable1(rows []Table1Row) *report.Table {
	t := report.NewTable("Table I: vision transformer case studies",
		"Model", "Task", "Params(M)", "Dataset", "Input", "GFLOPs", "mIoU/AP")
	for _, r := range rows {
		t.AddRowf(r.Model, r.Task, r.MParams, r.Dataset, r.Input, r.GFLOPs, r.Metric)
	}
	return t
}

// Fig1Row is one image-size point for one DETR-family model.
type Fig1Row struct {
	Model         string
	Pixels        int
	GFLOPs        float64
	ConvFLOPShare float64
	BackboneShare float64
	ConvTimeShare float64
	GPUTimeMS     float64
}

// Fig1DETRConvShare sweeps image sizes for the four detection models,
// reporting the conv/backbone FLOP shares and modeled GPU conv time share
// (paper Fig. 1). The (model, size) grid is profiled across workers
// goroutines (0 = GOMAXPROCS).
func Fig1DETRConvShare(sizes []int, workers int) ([]Fig1Row, error) {
	if len(sizes) == 0 {
		sizes = []int{64, 128, 256, 512, 800, 1024, 1536, 2048}
	}
	dev := gpu.A5000()
	variants := []nn.DETRVariant{nn.DETR, nn.ConditionalDETR, nn.DABDETR, nn.AnchorDETR}
	rows := make([]Fig1Row, len(variants)*len(sizes))
	if err := engine.ForEach(workers, len(rows), func(i int) error {
		v, sz := variants[i/len(sizes)], sizes[i%len(sizes)]
		g, err := nn.DETRModel(v, sz, sz)
		if err != nil {
			return err
		}
		r := dev.Run(g)
		rows[i] = Fig1Row{
			Model:         string(v),
			Pixels:        sz * sz,
			GFLOPs:        float64(g.TotalMACs()) / 1e9,
			ConvFLOPShare: g.ConvFLOPShare(),
			BackboneShare: float64(nn.BackboneMACs(g)) / float64(g.TotalMACs()),
			ConvTimeShare: r.ConvTimeShare(),
			GPUTimeMS:     r.Total * 1e3,
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderFig1 renders the Fig. 1 series.
func RenderFig1(rows []Fig1Row) *report.Table {
	t := report.NewTable("Fig 1: conv FLOPs vs GPU time across image sizes (DETR family)",
		"Model", "Pixels", "GFLOPs", "ConvFLOP%", "Backbone%", "ConvTime%", "GPU ms")
	for _, r := range rows {
		t.AddRowf(r.Model, r.Pixels, r.GFLOPs, 100*r.ConvFLOPShare, 100*r.BackboneShare,
			100*r.ConvTimeShare, r.GPUTimeMS)
	}
	return t
}

// Fig3Row is one layer-share entry of the FLOPs distribution.
type Fig3Row struct {
	Model string
	Layer string
	Kind  string
	Share float64
}

// Fig3Result carries the distribution plus the headline aggregates.
type Fig3Result struct {
	Rows             []Fig3Row
	SegFormerConv    float64
	SwinConv         float64
	FuseShare        float64
	FPNShare         float64
	EncoderConvShare map[string]float64 // share of conv FLOPs in the encoder
}

// Fig3FLOPsDistribution profiles SegFormer ADE B2 and Swin Tiny at 512x512
// (paper Fig. 3), returning the top layers of each distribution.
func Fig3FLOPsDistribution(topN int) (*Fig3Result, error) {
	if topN <= 0 {
		topN = 8
	}
	res := &Fig3Result{EncoderConvShare: map[string]float64{}}
	for _, m := range []struct {
		name string
		g    *graph.Graph
	}{
		{"SegFormer-ADE-B2", nn.MustSegFormer("B2", 150, 512, 512)},
		{"Swin-Tiny", nn.MustSwin("Tiny", 150, 512, 512)},
	} {
		p := flops.Analyze(m.g, 1)
		for _, l := range p.Top(topN) {
			res.Rows = append(res.Rows, Fig3Row{Model: m.name, Layer: l.Name, Kind: l.Kind.String(), Share: l.Frac})
		}
		var encConv, allConv float64
		for i := range m.g.Layers {
			l := &m.g.Layers[i]
			if !l.Kind.IsConv() {
				continue
			}
			allConv += float64(l.MACs())
			if l.Module == "encoder" {
				encConv += float64(l.MACs())
			}
		}
		res.EncoderConvShare[m.name] = encConv / allConv
		switch m.name {
		case "SegFormer-ADE-B2":
			res.SegFormerConv = p.ConvShare()
			if f := m.g.Find("dec.conv2dfuse"); f != nil {
				res.FuseShare = float64(f.MACs()) / float64(m.g.TotalMACs())
			}
		case "Swin-Tiny":
			res.SwinConv = p.ConvShare()
			if f := m.g.Find("dec.fpnbottleneck"); f != nil {
				res.FPNShare = float64(f.MACs()) / float64(m.g.TotalMACs())
			}
		}
	}
	return res, nil
}

// RenderFig3 renders the Fig. 3 distribution.
func RenderFig3(res *Fig3Result) *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Fig 3: FLOPs distribution (SegFormer conv %.0f%%, Swin conv %.0f%%)",
			100*res.SegFormerConv, 100*res.SwinConv),
		"Model", "Layer", "Kind", "Share%")
	for _, r := range res.Rows {
		t.AddRowf(r.Model, r.Layer, r.Kind, 100*r.Share)
	}
	return t
}

// Fig4Row is one (model, pixels) point of conv GPU time.
type Fig4Row struct {
	Model         string
	Pixels        int
	ConvTimeMS    float64
	TotalTimeMS   float64
	ConvTimeShare float64
	ConvFLOPShare float64
}

// Fig4ConvGPUTime sweeps the five segmentation models over image sizes
// (paper Fig. 4). The (model, size) grid is profiled across workers
// goroutines (0 = GOMAXPROCS).
func Fig4ConvGPUTime(sizes []int, workers int) ([]Fig4Row, error) {
	if len(sizes) == 0 {
		sizes = []int{128, 256, 512, 768, 1024}
	}
	dev := gpu.A5000()
	models := []struct {
		name  string
		build func(sz int) *graph.Graph
	}{
		{"SegFormer-ADE-B2", func(sz int) *graph.Graph { return nn.MustSegFormer("B2", 150, sz, sz) }},
		{"SegFormer-City-B2", func(sz int) *graph.Graph { return nn.MustSegFormer("B2", 19, sz, sz) }},
		{"Swin-Tiny", func(sz int) *graph.Graph { return nn.MustSwin("Tiny", 150, sz, sz) }},
		{"Swin-Small", func(sz int) *graph.Graph { return nn.MustSwin("Small", 150, sz, sz) }},
		{"Swin-Base", func(sz int) *graph.Graph { return nn.MustSwin("Base", 150, sz, sz) }},
	}
	rows := make([]Fig4Row, len(models)*len(sizes))
	if err := engine.ForEach(workers, len(rows), func(i int) error {
		m, sz := models[i/len(sizes)], sizes[i%len(sizes)]
		g := m.build(sz)
		r := dev.Run(g)
		var conv float64
		for _, l := range r.Layers {
			if l.Kind.IsConv() {
				conv += l.Seconds
			}
		}
		rows[i] = Fig4Row{
			Model:         m.name,
			Pixels:        sz * sz,
			ConvTimeMS:    conv * 1e3,
			TotalTimeMS:   r.Total * 1e3,
			ConvTimeShare: r.ConvTimeShare(),
			ConvFLOPShare: g.ConvFLOPShare(),
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderFig4 renders the Fig. 4 series.
func RenderFig4(rows []Fig4Row) *report.Table {
	t := report.NewTable("Fig 4: image pixels vs GPU time in convolutions (segmentation models)",
		"Model", "Pixels", "Conv ms", "Total ms", "ConvTime%", "ConvFLOP%")
	for _, r := range rows {
		t.AddRowf(r.Model, r.Pixels, r.ConvTimeMS, r.TotalTimeMS, 100*r.ConvTimeShare, 100*r.ConvFLOPShare)
	}
	return t
}

package graph

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Graph is an ordered list of layers describing one inference of a model at a
// fixed input resolution. Order matches execution order; the profiling
// substrates (FLOP analyzer, GPU model, accelerator simulator) consume layers
// sequentially.
type Graph struct {
	Name   string // e.g. "SegFormer-ADE-B2"
	Task   string // "semantic-segmentation", "object-detection", "classification"
	InputH int
	InputW int

	Layers []Layer
}

// Add appends a layer, returning a pointer to the stored copy so builders can
// tweak fields after insertion.
func (g *Graph) Add(l Layer) *Layer {
	g.Layers = append(g.Layers, l)
	return &g.Layers[len(g.Layers)-1]
}

// namePool recycles Validate's name sets. Every swept candidate is
// validated, and a fresh map per call was a tenth of a candidate
// build's allocation.
var namePool = sync.Pool{New: func() any { return map[string]struct{}{} }}

// Validate checks every layer and that names are unique.
func (g *Graph) Validate() error {
	seen := namePool.Get().(map[string]struct{})
	defer func() {
		clear(seen)
		namePool.Put(seen)
	}()
	for i := range g.Layers {
		l := &g.Layers[i]
		if l.Name == "" {
			return fmt.Errorf("graph %q: layer %d has empty name", g.Name, i)
		}
		if _, dup := seen[l.Name]; dup {
			return fmt.Errorf("graph %q: duplicate layer name %q", g.Name, l.Name)
		}
		seen[l.Name] = struct{}{}
		if err := l.Validate(); err != nil {
			return fmt.Errorf("graph %q: %w", g.Name, err)
		}
	}
	return nil
}

// Find returns the first layer whose name matches exactly, or nil.
func (g *Graph) Find(name string) *Layer {
	for i := range g.Layers {
		if g.Layers[i].Name == name {
			return &g.Layers[i]
		}
	}
	return nil
}

// FindPrefix returns all layers whose name starts with the given prefix.
func (g *Graph) FindPrefix(prefix string) []*Layer {
	var out []*Layer
	for i := range g.Layers {
		if strings.HasPrefix(g.Layers[i].Name, prefix) {
			out = append(out, &g.Layers[i])
		}
	}
	return out
}

// TotalMACs sums MACs over all layers.
func (g *Graph) TotalMACs() int64 {
	var t int64
	for i := range g.Layers {
		t += g.Layers[i].MACs()
	}
	return t
}

// TotalFLOPs sums FLOPs (paper convention) over all layers.
func (g *Graph) TotalFLOPs() int64 {
	var t int64
	for i := range g.Layers {
		t += g.Layers[i].FLOPs()
	}
	return t
}

// TotalParams sums learnable parameters over all layers.
func (g *Graph) TotalParams() int64 {
	var t int64
	for i := range g.Layers {
		t += g.Layers[i].Params()
	}
	return t
}

// ConvMACs sums MACs of convolutional layers only.
func (g *Graph) ConvMACs() int64 {
	var t int64
	for i := range g.Layers {
		if g.Layers[i].Kind.IsConv() {
			t += g.Layers[i].MACs()
		}
	}
	return t
}

// ConvFLOPShare returns the fraction of total MACs in convolutions — the
// paper's headline profiling metric (Sections III-A and III-B).
func (g *Graph) ConvFLOPShare() float64 {
	total := g.TotalMACs()
	if total == 0 {
		return 0
	}
	return float64(g.ConvMACs()) / float64(total)
}

// ModuleMACs sums MACs grouped by the Module tag.
func (g *Graph) ModuleMACs() map[string]int64 {
	m := make(map[string]int64)
	for i := range g.Layers {
		m[g.Layers[i].Module] += g.Layers[i].MACs()
	}
	return m
}

// KindMACs sums MACs grouped by operator kind.
func (g *Graph) KindMACs() map[Kind]int64 {
	m := make(map[Kind]int64)
	for i := range g.Layers {
		m[g.Layers[i].Kind] += g.Layers[i].MACs()
	}
	return m
}

// Share describes one named component's fraction of a total.
type Share struct {
	Name string
	MACs int64
	Frac float64
}

// TopLayers returns the n layers with the highest MAC counts, sorted
// descending, with their fraction of the graph total.
func (g *Graph) TopLayers(n int) []Share {
	total := g.TotalMACs()
	shares := make([]Share, 0, len(g.Layers))
	for i := range g.Layers {
		if mac := g.Layers[i].MACs(); mac > 0 {
			frac := 0.0
			if total > 0 {
				frac = float64(mac) / float64(total)
			}
			shares = append(shares, Share{Name: g.Layers[i].Name, MACs: mac, Frac: frac})
		}
	}
	sort.Slice(shares, func(i, j int) bool {
		if shares[i].MACs != shares[j].MACs {
			return shares[i].MACs > shares[j].MACs
		}
		return shares[i].Name < shares[j].Name
	})
	if n < len(shares) {
		shares = shares[:n]
	}
	return shares
}

// Clone returns a deep copy of the graph. Pruning transformations operate on
// clones so the original model definition stays intact.
func (g *Graph) Clone() *Graph {
	cp := *g
	cp.Layers = make([]Layer, len(g.Layers))
	copy(cp.Layers, g.Layers)
	return &cp
}

// Pixels returns the number of input image pixels.
func (g *Graph) Pixels() int { return g.InputH * g.InputW }

// Signature returns a 64-bit FNV-1a hash over the graph's cost-relevant
// shape: input resolution, layer order, and every shape field of every
// layer. Names, module tags and stage/block indices are deliberately
// excluded — every cost substrate in this repository prices a layer from
// its kind and dimensions alone — so shape-identical graphs built under
// different labels share one signature. The sweep engine keys its cost
// memo cache on this value.
func (g *Graph) Signature() uint64 {
	// Word-level FNV-1a: one xor/multiply round per field rather than per
	// byte, keeping the hash an order of magnitude cheaper than the
	// cheapest cost model that consumes it.
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v int) {
		h ^= uint64(int64(v))
		h *= prime64
	}
	mix(g.InputH)
	mix(g.InputW)
	mix(len(g.Layers))
	for i := range g.Layers {
		l := &g.Layers[i]
		bias := 0
		if l.HasBias {
			bias = 1
		}
		mix(int(l.Kind))
		mix(l.InC)
		mix(l.OutC)
		mix(l.KH)
		mix(l.KW)
		mix(l.SH)
		mix(l.SW)
		mix(l.InH)
		mix(l.InW)
		mix(l.OutH)
		mix(l.OutW)
		mix(l.Groups)
		mix(bias)
		mix(l.Tokens)
		mix(l.InF)
		mix(l.OutF)
		mix(l.Batch)
		mix(l.M)
		mix(l.K)
		mix(l.N)
		mix(l.Elems)
		mix(l.Channels)
	}
	return h
}

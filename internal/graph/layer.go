// Package graph defines the layer-level intermediate representation used by
// every profiling and simulation substrate in this repository.
//
// A model is represented as a Graph: an ordered list of Layers, each of which
// carries the full shape information needed to compute its multiply-accumulate
// count (MACs), parameter count, and activation traffic analytically. The
// representation deliberately mirrors the layer taxonomy of the paper
// (Figure 2): Conv2D, depthwise Conv2D, Linear, batched MatMul, Softmax,
// LayerNorm, BatchNorm, ReLU, GELU, Add, Interpolate, Concat, Pool and pure
// data movement (Reshape).
//
// Following the paper's convention (verified by the nn package tests
// against its reported totals), "FLOPs" means MACs for matrix-type
// operators; pointwise operators contribute element counts, which are
// negligible for FLOP totals but matter for memory traffic and
// kernel-launch accounting.
package graph

import "fmt"

// Kind identifies the operator class of a Layer.
type Kind int

// Operator classes. MatrixKinds (Conv2D..MatMul) carry MACs; the remaining
// kinds are pointwise or data-movement operators that carry only element
// counts and byte traffic.
const (
	Conv2D Kind = iota
	DWConv2D
	Linear
	MatMul
	Softmax
	LayerNorm
	BatchNorm
	ReLU
	GELU
	Add
	Interpolate
	Concat
	Pool
	Reshape
)

var kindNames = [...]string{
	Conv2D:      "Conv2D",
	DWConv2D:    "DWConv2D",
	Linear:      "Linear",
	MatMul:      "MatMul",
	Softmax:     "Softmax",
	LayerNorm:   "LayerNorm",
	BatchNorm:   "BatchNorm",
	ReLU:        "ReLU",
	GELU:        "GELU",
	Add:         "Add",
	Interpolate: "Interpolate",
	Concat:      "Concat",
	Pool:        "Pool",
	Reshape:     "Reshape",
}

// String returns the canonical name of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// IsConv reports whether the kind is a convolution (standard or depthwise).
// The paper's central profiling question — what fraction of computation is
// convolutional — is phrased in terms of this predicate.
func (k Kind) IsConv() bool { return k == Conv2D || k == DWConv2D }

// IsMatrix reports whether the kind performs multiply-accumulates.
func (k Kind) IsMatrix() bool {
	switch k {
	case Conv2D, DWConv2D, Linear, MatMul:
		return true
	}
	return false
}

// Layer is one operator instance with concrete shapes. Only the fields
// relevant to the layer's Kind are set; the remaining fields are zero.
type Layer struct {
	Name   string // unique within a Graph, e.g. "enc.s0.b1.attn.q"
	Kind   Kind
	Module string // coarse grouping: "encoder", "decoder", "backbone", "head", ...
	Stage  int    // encoder stage index, or -1 when not applicable
	Block  int    // block index within the stage, or -1

	// Convolution shape (Conv2D, DWConv2D). Groups follows the usual
	// grouped-convolution convention; DWConv2D implies Groups == InC == OutC.
	InC, OutC  int
	KH, KW     int
	SH, SW     int
	InH, InW   int
	OutH, OutW int
	Groups     int
	HasBias    bool

	// Linear shape: Tokens rows of InF features projected to OutF.
	Tokens, InF, OutF int

	// Batched matrix multiply shape: Batch independent (M x K) x (K x N)
	// products. For attention score/context products Batch = windows*heads.
	Batch, M, K, N int

	// Pointwise / data-movement size: number of elements processed. For
	// normalization layers Channels records the normalized width (used for
	// parameter counting).
	Elems    int
	Channels int
}

// Validate checks that the shape fields required by the layer's kind are
// positive and internally consistent.
func (l *Layer) Validate() error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("layer %q (%s): %s", l.Name, l.Kind, fmt.Sprintf(format, args...))
	}
	switch l.Kind {
	case Conv2D, DWConv2D:
		if l.InC <= 0 || l.OutC <= 0 || l.KH <= 0 || l.KW <= 0 {
			return fail("non-positive channel/kernel dims (InC=%d OutC=%d KH=%d KW=%d)", l.InC, l.OutC, l.KH, l.KW)
		}
		if l.InH <= 0 || l.InW <= 0 || l.OutH <= 0 || l.OutW <= 0 {
			return fail("non-positive spatial dims")
		}
		if l.Groups <= 0 {
			return fail("Groups must be >= 1, got %d", l.Groups)
		}
		if l.InC%l.Groups != 0 || l.OutC%l.Groups != 0 {
			return fail("channels not divisible by groups (%d,%d / %d)", l.InC, l.OutC, l.Groups)
		}
		if l.Kind == DWConv2D && (l.Groups != l.InC || l.InC != l.OutC) {
			return fail("depthwise conv requires Groups == InC == OutC")
		}
	case Linear:
		if l.Tokens <= 0 || l.InF <= 0 || l.OutF <= 0 {
			return fail("non-positive linear dims (Tokens=%d InF=%d OutF=%d)", l.Tokens, l.InF, l.OutF)
		}
	case MatMul:
		if l.Batch <= 0 || l.M <= 0 || l.K <= 0 || l.N <= 0 {
			return fail("non-positive matmul dims (B=%d M=%d K=%d N=%d)", l.Batch, l.M, l.K, l.N)
		}
	default:
		if l.Elems <= 0 {
			return fail("non-positive element count %d", l.Elems)
		}
	}
	return nil
}

// MACs returns the multiply-accumulate count of the layer. Pointwise and
// data-movement layers return zero.
func (l *Layer) MACs() int64 {
	switch l.Kind {
	case Conv2D, DWConv2D:
		return int64(l.OutH) * int64(l.OutW) * int64(l.OutC) *
			(int64(l.InC) / int64(l.Groups)) * int64(l.KH) * int64(l.KW)
	case Linear:
		return int64(l.Tokens) * int64(l.InF) * int64(l.OutF)
	case MatMul:
		return int64(l.Batch) * int64(l.M) * int64(l.K) * int64(l.N)
	}
	return 0
}

// FLOPs returns the layer's FLOP count under the paper's convention
// (FLOPs == MACs for matrix operators, element count for pointwise ones).
func (l *Layer) FLOPs() int64 {
	if l.Kind.IsMatrix() {
		return l.MACs()
	}
	switch l.Kind {
	case Concat, Reshape, Interpolate:
		return 0 // pure data movement
	}
	return int64(l.Elems)
}

// Params returns the number of learnable parameters in the layer.
func (l *Layer) Params() int64 {
	switch l.Kind {
	case Conv2D, DWConv2D:
		p := int64(l.OutC) * (int64(l.InC) / int64(l.Groups)) * int64(l.KH) * int64(l.KW)
		if l.HasBias {
			p += int64(l.OutC)
		}
		return p
	case Linear:
		return int64(l.InF)*int64(l.OutF) + int64(l.OutF)
	case LayerNorm, BatchNorm:
		return 2 * int64(l.Channels)
	}
	return 0
}

// InputElems returns the number of input activation elements read.
func (l *Layer) InputElems() int64 {
	switch l.Kind {
	case Conv2D, DWConv2D:
		return int64(l.InH) * int64(l.InW) * int64(l.InC)
	case Linear:
		return int64(l.Tokens) * int64(l.InF)
	case MatMul:
		return int64(l.Batch) * (int64(l.M)*int64(l.K) + int64(l.K)*int64(l.N))
	case Add, Concat:
		return 2 * int64(l.Elems) // two operands (Concat sized as total output)
	}
	return int64(l.Elems)
}

// OutputElems returns the number of output activation elements written.
func (l *Layer) OutputElems() int64 {
	switch l.Kind {
	case Conv2D, DWConv2D:
		return int64(l.OutH) * int64(l.OutW) * int64(l.OutC)
	case Linear:
		return int64(l.Tokens) * int64(l.OutF)
	case MatMul:
		return int64(l.Batch) * int64(l.M) * int64(l.N)
	}
	return int64(l.Elems)
}

// ActivationBytes returns total activation traffic (input reads plus output
// writes) in bytes given the datatype width.
func (l *Layer) ActivationBytes(bytesPerElem int) int64 {
	return (l.InputElems() + l.OutputElems()) * int64(bytesPerElem)
}

// WeightBytes returns the parameter footprint in bytes for the datatype width.
func (l *Layer) WeightBytes(bytesPerElem int) int64 {
	return l.Params() * int64(bytesPerElem)
}

// OpIntensity returns the layer's operational intensity in MACs per byte of
// activation-plus-weight traffic. The paper reports 130+ MACs/byte for the
// segmentation models at 8-bit precision.
func (l *Layer) OpIntensity(bytesPerElem int) float64 {
	bytes := l.ActivationBytes(bytesPerElem) + l.WeightBytes(bytesPerElem)
	if bytes == 0 {
		return 0
	}
	return float64(l.MACs()) / float64(bytes)
}

// ConvOut returns the output spatial extent of a convolution given input
// size, kernel, stride and symmetric padding.
func ConvOut(in, k, stride, pad int) int {
	return (in+2*pad-k)/stride + 1
}

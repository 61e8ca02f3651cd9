package rdd

// Trace slice pooling. Every replay builds a frames-long []float64,
// walks it once for all its policies (Catalog.Replay), and drops it — at
// serving rates that is the dominant per-request allocation on the cold
// replay path (the warm path serves cached bytes and never builds a
// trace at all; the one-pass kernel's own allocations are a few small
// per-call tables, independent of the frame count). The
// generators draw their backing arrays from a sync.Pool here; callers
// that are done with a trace hand it back via RecycleTrace. Recycling
// is optional and safety does not depend on it: every generator
// overwrites all n frames it returns, so a pooled array's stale
// contents can never leak into a new trace.

import (
	"sync"
	"sync/atomic"
)

// tracePool holds *Trace boxes (pointer-shaped, so Put does not box a
// slice header into a fresh interface allocation on every cycle).
var tracePool sync.Pool

var (
	tracePoolHits   atomic.Uint64 // getTrace served by a pooled array big enough
	tracePoolMisses atomic.Uint64 // getTrace had to allocate a new array
)

// TracePoolStats reports how often trace generators reused a recycled
// backing array versus allocating a fresh one — exported so the serving
// layer can surface pool effectiveness in /statsz and /metrics.
func TracePoolStats() (hits, misses uint64) {
	return tracePoolHits.Load(), tracePoolMisses.Load()
}

// getTrace returns a length-n trace, reusing a recycled backing array
// when one with enough capacity is available. The contents are
// unspecified: callers must write every frame (all built-in generators
// do).
func getTrace(n int) Trace {
	if v, ok := tracePool.Get().(*Trace); ok {
		tr := *v
		*v = nil
		if cap(tr) >= n {
			tracePoolHits.Add(1)
			return tr[:n]
		}
		// Too small for this request; drop it and let the GC take the
		// array rather than cycling an undersized buffer forever.
	}
	tracePoolMisses.Add(1)
	return make(Trace, n)
}

// RecycleTrace returns a trace's backing array to the generator pool.
// Call it only when nothing retains the trace or any reslice of it —
// the next generator WILL overwrite the array. Recycling a nil or
// zero-capacity trace is a no-op. The trace itself (a slice header
// passed by value) remains valid in the caller but must not be read
// after this call.
func RecycleTrace(tr Trace) {
	if cap(tr) == 0 {
		return
	}
	tr = tr[:0]
	tracePool.Put(&tr)
}

package rdd

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// ReadValuesFile parses a recorded per-frame load trace from a CSV or
// newline-delimited text file: one budget per line, or several per line
// separated by commas (flattened in reading order), blank lines and
// #-comment lines skipped — tolerant enough to ingest a column dumped
// from a metrics system without reshaping. Budgets must be finite and
// non-negative (strconv.ParseFloat accepts "NaN" and "Inf", so both are
// checked explicitly) and the file must contain at least one.
func ReadValuesFile(path string) (Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("rdd: values-file trace: %w", err)
	}
	defer f.Close()
	var tr Trace
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		for _, field := range strings.Split(text, ",") {
			field = strings.TrimSpace(field)
			if field == "" {
				continue
			}
			v, err := strconv.ParseFloat(field, 64)
			if err != nil {
				return nil, fmt.Errorf("rdd: %s:%d: bad budget %q: %v", path, line, field, err)
			}
			if !isFinite(v) {
				return nil, fmt.Errorf("rdd: %s:%d: budget %q is not finite", path, line, field)
			}
			if v < 0 {
				return nil, fmt.Errorf("rdd: %s:%d: budget %v is negative", path, line, v)
			}
			tr = append(tr, v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("rdd: reading %s: %w", path, err)
	}
	if len(tr) == 0 {
		return nil, fmt.Errorf("rdd: values-file trace %s holds no budgets", path)
	}
	return tr, nil
}

// TraceSpec is the declarative form of a resource-availability trace: a
// generator kind plus its parameters, decodable from JSON. It is the one
// trace format both the rddsim CLI (-trace-spec) and the vitdynd server
// (/v1/replay) consume, so any trace shape is a payload rather than a
// code change:
//
//	{"kind":"sinusoid","frames":2000,"lo":4,"hi":9,"period":120}
//	{"kind":"step","frames":2000,"lo":4,"hi":9,"stride":60}
//	{"kind":"bursty","frames":2000,"lo":4,"hi":9,"busy_frac":0.4,"seed":7}
//	{"kind":"values","values":[5,5,8,3]}
//	{"kind":"values-file","path":"load.csv"}
//
// Lo and Hi are budgets in the same units as catalog path costs. When
// both are zero the replay entry points substitute a catalog-relative
// scale (see WithBudgetScale), so a spec can stay cost-unit agnostic.
//
// values-file loads a recorded per-frame load trace from a local CSV or
// newline-delimited file (see ReadValuesFile). The path resolves on the
// machine that builds the trace — i.e. client-side, in rddsim — and the
// vitdynd server refuses it: a remote caller naming server-local files
// would be a disclosure primitive, and the inline values kind is the
// wire form a client resolves a file into.
type TraceSpec struct {
	Kind     string    `json:"kind"`
	Frames   int       `json:"frames,omitempty"`
	Lo       float64   `json:"lo,omitempty"`
	Hi       float64   `json:"hi,omitempty"`
	Period   int       `json:"period,omitempty"`    // sinusoid: frames per oscillation (0 = 100)
	Stride   int       `json:"stride,omitempty"`    // step: frames per level (0 = 50)
	BusyFrac float64   `json:"busy_frac,omitempty"` // bursty: stationary contended fraction
	Seed     uint64    `json:"seed,omitempty"`      // bursty: deterministic LCG seed
	Values   []float64 `json:"values,omitempty"`    // values: inline per-frame budgets
	Path     string    `json:"path,omitempty"`      // values-file: local trace file
}

// TraceGenerator materializes a trace from a spec. Implementations
// should validate the parameters they consume and return an error for
// impossible ones rather than silently clamping.
type TraceGenerator func(TraceSpec) (Trace, error)

var (
	traceMu    sync.RWMutex
	traceKinds = map[string]TraceGenerator{}
)

// RegisterTraceKind adds (or replaces) a generator under a kind name,
// extending what TraceSpec.Build can resolve — user code can register
// workload-specific trace shapes next to the built-in sinusoid, step,
// bursty and values kinds. Empty kinds and nil generators are rejected.
func RegisterTraceKind(kind string, gen TraceGenerator) error {
	if kind == "" {
		return fmt.Errorf("rdd: trace kind must be non-empty")
	}
	if gen == nil {
		return fmt.Errorf("rdd: trace kind %q needs a non-nil generator", kind)
	}
	traceMu.Lock()
	defer traceMu.Unlock()
	traceKinds[kind] = gen
	return nil
}

// TraceKinds lists every registered trace kind, sorted.
func TraceKinds() []string {
	traceMu.RLock()
	defer traceMu.RUnlock()
	kinds := make([]string, 0, len(traceKinds))
	for k := range traceKinds {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}

// Build resolves the spec's kind through the generator registry and
// materializes the trace.
func (s TraceSpec) Build() (Trace, error) {
	traceMu.RLock()
	gen, ok := traceKinds[s.Kind]
	traceMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("rdd: unknown trace kind %q (registered: %v)", s.Kind, TraceKinds())
	}
	return gen(s)
}

// WithBudgetScale returns the spec with Lo/Hi substituted when both are
// zero — the catalog-relative default the replay entry points apply so a
// spec need not know the cost units of the catalog it replays against.
// Specs with either bound set, and recorded-budget specs (inline values
// or a values file), pass through unchanged.
func (s TraceSpec) WithBudgetScale(lo, hi float64) TraceSpec {
	if s.Kind == "values" || s.Kind == "values-file" || s.Lo != 0 || s.Hi != 0 {
		return s
	}
	s.Lo, s.Hi = lo, hi
	return s
}

// isFinite reports whether v is neither NaN nor an infinity: a budget
// must be a real amount, and NaN slips past every ordered comparison.
func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// validateSynthetic checks the parameters every generated (non-inline)
// kind shares.
func (s TraceSpec) validateSynthetic() error {
	if s.Frames <= 0 {
		return fmt.Errorf("rdd: trace kind %q needs frames > 0 (got %d)", s.Kind, s.Frames)
	}
	if !isFinite(s.Lo) || !isFinite(s.Hi) {
		return fmt.Errorf("rdd: trace kind %q budgets must be finite (lo=%v hi=%v)", s.Kind, s.Lo, s.Hi)
	}
	if s.Lo < 0 || s.Hi < 0 {
		return fmt.Errorf("rdd: trace kind %q budgets must be non-negative (lo=%v hi=%v)", s.Kind, s.Lo, s.Hi)
	}
	if s.Lo > s.Hi {
		return fmt.Errorf("rdd: trace kind %q needs lo <= hi (lo=%v hi=%v)", s.Kind, s.Lo, s.Hi)
	}
	return nil
}

func init() {
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	must(RegisterTraceKind("sinusoid", func(s TraceSpec) (Trace, error) {
		if err := s.validateSynthetic(); err != nil {
			return nil, err
		}
		return SinusoidTrace(s.Frames, s.Lo, s.Hi, s.Period), nil
	}))
	must(RegisterTraceKind("step", func(s TraceSpec) (Trace, error) {
		if err := s.validateSynthetic(); err != nil {
			return nil, err
		}
		return StepTrace(s.Frames, s.Lo, s.Hi, s.Stride), nil
	}))
	must(RegisterTraceKind("bursty", func(s TraceSpec) (Trace, error) {
		if err := s.validateSynthetic(); err != nil {
			return nil, err
		}
		if !(s.BusyFrac >= 0 && s.BusyFrac <= 1) { // NaN fails both tests
			return nil, fmt.Errorf("rdd: bursty busy_frac %v outside [0,1]", s.BusyFrac)
		}
		return BurstyTrace(s.Frames, s.Lo, s.Hi, s.BusyFrac, s.Seed), nil
	}))
	must(RegisterTraceKind("values-file", func(s TraceSpec) (Trace, error) {
		if s.Path == "" {
			return nil, fmt.Errorf("rdd: values-file trace needs a path")
		}
		tr, err := ReadValuesFile(s.Path)
		if err != nil {
			return nil, err
		}
		if s.Frames != 0 && s.Frames != len(tr) {
			return nil, fmt.Errorf("rdd: values-file trace frames=%d contradicts %d recorded values in %s (omit frames or make them agree)", s.Frames, len(tr), s.Path)
		}
		return tr, nil
	}))
	must(RegisterTraceKind("values", func(s TraceSpec) (Trace, error) {
		if len(s.Values) == 0 {
			return nil, fmt.Errorf("rdd: values trace needs at least one budget")
		}
		if s.Frames != 0 && s.Frames != len(s.Values) {
			return nil, fmt.Errorf("rdd: values trace frames=%d contradicts %d inline values (omit frames or make them agree)", s.Frames, len(s.Values))
		}
		for i, v := range s.Values {
			if !isFinite(v) {
				return nil, fmt.Errorf("rdd: values trace budget %d is not finite (%v)", i, v)
			}
			if v < 0 {
				return nil, fmt.Errorf("rdd: values trace budget %d is negative (%v)", i, v)
			}
		}
		tr := getTrace(len(s.Values))
		copy(tr, s.Values)
		return tr, nil
	}))
}

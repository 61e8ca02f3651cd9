package rdd

import (
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestTraceSpecBuildMatchesGenerators(t *testing.T) {
	cases := []struct {
		spec TraceSpec
		want Trace
	}{
		{TraceSpec{Kind: "sinusoid", Frames: 50, Lo: 2, Hi: 8, Period: 10}, SinusoidTrace(50, 2, 8, 10)},
		{TraceSpec{Kind: "sinusoid", Frames: 50, Lo: 2, Hi: 8}, SinusoidTrace(50, 2, 8, 0)}, // default period
		{TraceSpec{Kind: "step", Frames: 40, Lo: 1, Hi: 9, Stride: 5}, StepTrace(40, 1, 9, 5)},
		{TraceSpec{Kind: "bursty", Frames: 100, Lo: 3, Hi: 7, BusyFrac: 0.4, Seed: 7}, BurstyTrace(100, 3, 7, 0.4, 7)},
		{TraceSpec{Kind: "values", Values: []float64{5, 0, 8, 3}}, Trace{5, 0, 8, 3}},
	}
	for _, tc := range cases {
		got, err := tc.spec.Build()
		if err != nil {
			t.Errorf("%+v: %v", tc.spec, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%+v: trace differs from direct generator call", tc.spec)
		}
	}
}

func TestTraceSpecJSONRoundTrip(t *testing.T) {
	// The JSON grammar is the serving contract: field names are part of
	// the /v1/replay API.
	raw := `{"kind":"bursty","frames":64,"lo":2.5,"hi":9,"busy_frac":0.4,"seed":7}`
	var spec TraceSpec
	if err := json.Unmarshal([]byte(raw), &spec); err != nil {
		t.Fatal(err)
	}
	want := TraceSpec{Kind: "bursty", Frames: 64, Lo: 2.5, Hi: 9, BusyFrac: 0.4, Seed: 7}
	if !reflect.DeepEqual(spec, want) {
		t.Fatalf("decoded %+v, want %+v", spec, want)
	}
	tr, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, BurstyTrace(64, 2.5, 9, 0.4, 7)) {
		t.Error("JSON-decoded spec built a different trace")
	}
}

func TestTraceSpecValidation(t *testing.T) {
	bad := []struct {
		spec TraceSpec
		want string
	}{
		{TraceSpec{Kind: "warp"}, "unknown trace kind"},
		{TraceSpec{Kind: "sinusoid", Lo: 1, Hi: 2}, "frames > 0"},
		{TraceSpec{Kind: "step", Frames: 10, Lo: 5, Hi: 2}, "lo <= hi"},
		{TraceSpec{Kind: "bursty", Frames: 10, Lo: -1, Hi: 2}, "non-negative"},
		{TraceSpec{Kind: "bursty", Frames: 10, Lo: 1, Hi: 2, BusyFrac: 1.5}, "busy_frac"},
		{TraceSpec{Kind: "values"}, "at least one budget"},
		{TraceSpec{Kind: "values", Frames: 3, Values: []float64{1, 2}}, "contradicts"},
		{TraceSpec{Kind: "values", Values: []float64{1, -2}}, "negative"},
	}
	for _, tc := range bad {
		if _, err := tc.spec.Build(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: error %v, want mention of %q", tc.spec, err, tc.want)
		}
	}
	// Non-finite budgets: NaN slips past every ordered comparison and the
	// infinities past the sign checks, so each entry point refuses them
	// explicitly and names the value.
	nan, inf := math.NaN(), math.Inf(1)
	nonFinite := []struct {
		spec TraceSpec
		want string
	}{
		{TraceSpec{Kind: "values", Values: []float64{1, nan}}, "budget 1 is not finite (NaN)"},
		{TraceSpec{Kind: "values", Values: []float64{inf}}, "budget 0 is not finite (+Inf)"},
		{TraceSpec{Kind: "values", Values: []float64{2, 3, -inf}}, "budget 2 is not finite (-Inf)"},
		{TraceSpec{Kind: "sinusoid", Frames: 10, Lo: nan, Hi: 2}, "finite (lo=NaN hi=2)"},
		{TraceSpec{Kind: "step", Frames: 10, Lo: 1, Hi: inf}, "finite (lo=1 hi=+Inf)"},
		{TraceSpec{Kind: "bursty", Frames: 10, Lo: -inf, Hi: 2}, "finite (lo=-Inf hi=2)"},
		{TraceSpec{Kind: "bursty", Frames: 10, Lo: 1, Hi: nan}, "finite (lo=1 hi=NaN)"},
		{TraceSpec{Kind: "bursty", Frames: 10, Lo: 1, Hi: 2, BusyFrac: nan}, "busy_frac NaN"},
	}
	for _, tc := range nonFinite {
		if _, err := tc.spec.Build(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: error %v, want mention of %q", tc.spec, err, tc.want)
		}
	}
	// The unknown-kind error names what IS registered.
	_, err := TraceSpec{Kind: "warp"}.Build()
	for _, kind := range []string{"bursty", "sinusoid", "step", "values"} {
		if !strings.Contains(err.Error(), kind) {
			t.Errorf("unknown-kind error does not list %q: %v", kind, err)
		}
	}
}

func TestTraceSpecValuesCopies(t *testing.T) {
	vals := []float64{1, 2, 3}
	tr, err := TraceSpec{Kind: "values", Values: vals}.Build()
	if err != nil {
		t.Fatal(err)
	}
	vals[0] = 99
	if tr[0] != 1 {
		t.Error("built trace aliases the spec's Values slice")
	}
}

func TestRegisterTraceKind(t *testing.T) {
	if err := RegisterTraceKind("", func(TraceSpec) (Trace, error) { return nil, nil }); err == nil {
		t.Error("empty kind accepted")
	}
	if err := RegisterTraceKind("nil-gen", nil); err == nil {
		t.Error("nil generator accepted")
	}
	// A custom kind resolves through Build like the built-ins.
	err := RegisterTraceKind("constant-test", func(s TraceSpec) (Trace, error) {
		tr := make(Trace, s.Frames)
		for i := range tr {
			tr[i] = s.Hi
		}
		return tr, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := TraceSpec{Kind: "constant-test", Frames: 3, Hi: 4}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, Trace{4, 4, 4}) {
		t.Errorf("custom kind built %v", tr)
	}
	found := false
	for _, k := range TraceKinds() {
		if k == "constant-test" {
			found = true
		}
	}
	if !found {
		t.Errorf("TraceKinds() missing registered kind: %v", TraceKinds())
	}
}

func TestWithBudgetScale(t *testing.T) {
	// Both bounds unset: substituted.
	s := TraceSpec{Kind: "step", Frames: 10}.WithBudgetScale(2, 8)
	if s.Lo != 2 || s.Hi != 8 {
		t.Errorf("unset bounds not scaled: %+v", s)
	}
	// Any explicit bound: untouched.
	s = TraceSpec{Kind: "step", Frames: 10, Hi: 5}.WithBudgetScale(2, 8)
	if s.Lo != 0 || s.Hi != 5 {
		t.Errorf("explicit bounds rewritten: %+v", s)
	}
	// Inline values carry their own budgets.
	s = TraceSpec{Kind: "values", Values: []float64{1}}.WithBudgetScale(2, 8)
	if s.Lo != 0 || s.Hi != 0 {
		t.Errorf("values spec rewritten: %+v", s)
	}
}

func TestTraceMax(t *testing.T) {
	if m := (Trace{}).Max(); m != 0 {
		t.Errorf("empty trace max %v", m)
	}
	if m := (Trace{3, 9, 1}).Max(); m != 9 {
		t.Errorf("max %v, want 9", m)
	}
}

func TestSelectStrict(t *testing.T) {
	cat, err := NewCatalog("m", []Path{
		{Label: "small", Cost: 2, Accuracy: 0.5},
		{Label: "big", Cost: 8, Accuracy: 0.9},
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := cat.SelectStrict(5)
	if err != nil || p.Label != "small" {
		t.Errorf("SelectStrict(5) = %v, %v", p, err)
	}
	_, err = cat.SelectStrict(1)
	if err == nil {
		t.Fatal("infeasible budget returned no error")
	}
	if !errors.Is(err, ErrBudgetInfeasible) {
		t.Errorf("error %v does not match ErrBudgetInfeasible", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("error %T is not *BudgetError", err)
	}
	if be.Model != "m" || be.Budget != 1 || be.Cheapest != 2 {
		t.Errorf("BudgetError fields %+v", be)
	}
}

func TestSimulateSwitches(t *testing.T) {
	cat, err := NewCatalog("m", []Path{
		{Label: "small", Cost: 2, Accuracy: 0.5},
		{Label: "big", Cost: 8, Accuracy: 0.9},
	})
	if err != nil {
		t.Fatal(err)
	}
	// big, small, (skip), big: two switches across completed frames —
	// the skipped frame does not reset the previous path.
	tr := Trace{9, 3, 1, 9}
	res := cat.Simulate(tr)
	if res.Completed != 3 || res.Skipped != 1 {
		t.Fatalf("completed %d skipped %d", res.Completed, res.Skipped)
	}
	if res.Switches != 2 {
		t.Errorf("switches %d, want 2", res.Switches)
	}
	if got, want := res.SwitchRate(), 1.0; got != want {
		t.Errorf("switch rate %v, want %v", got, want)
	}
	// A constant-budget trace never switches.
	if r := cat.Simulate(Trace{9, 9, 9}); r.Switches != 0 || r.SwitchRate() != 0 {
		t.Errorf("constant trace switches %d rate %v", r.Switches, r.SwitchRate())
	}
	// Static replay never switches by construction.
	if r := SimulateStatic(cat.Full(), tr); r.Switches != 0 {
		t.Errorf("static switches %d", r.Switches)
	}
}

func TestCatalogSimulateStaticFullPathShare(t *testing.T) {
	cat, err := NewCatalog("m", []Path{
		{Label: "small", Cost: 2, Accuracy: 0.5},
		{Label: "big", Cost: 8, Accuracy: 0.9},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := Trace{9, 3, 9} // the full path skips the middle frame
	// Pinned to the full path: every completed frame runs it, skips or not.
	if r := cat.SimulateStatic(cat.Full(), tr); r.Skipped != 1 || r.FullPathShare != 1 {
		t.Errorf("full pin %+v, want skipped 1 and full share 1", r)
	}
	// Pinned to the cheapest path: the full path never runs, even though
	// no frame is skipped (the package-level approximation reports 1 here).
	if r := cat.SimulateStatic(cat.Cheapest(), tr); r.Skipped != 0 || r.FullPathShare != 0 {
		t.Errorf("cheapest pin %+v, want skipped 0 and full share 0", r)
	}
	// Nothing completed: share is 0, not NaN.
	if r := cat.SimulateStatic(cat.Full(), Trace{1}); r.Completed != 0 || r.FullPathShare != 0 {
		t.Errorf("infeasible pin %+v", r)
	}
}

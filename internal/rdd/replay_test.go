package rdd

import (
	"errors"
	"math"
	"testing"
)

// sameResult compares two results field for field, floats by bit
// pattern: the fused kernel must reproduce the reference loops exactly,
// not approximately.
func sameResult(a, b SimResult) bool {
	return a.Frames == b.Frames && a.Completed == b.Completed && a.Skipped == b.Skipped &&
		a.Switches == b.Switches &&
		math.Float64bits(a.MeanAccuracy) == math.Float64bits(b.MeanAccuracy) &&
		math.Float64bits(a.MeanCost) == math.Float64bits(b.MeanCost) &&
		math.Float64bits(a.FullPathShare) == math.Float64bits(b.FullPathShare)
}

// checkReplay asserts that Catalog.Replay and every single-policy entry
// point agree with the pre-fusion reference loops on (c, tr, pols), and
// that Replay fails exactly when SelectStrict(tr.Max()) does.
func checkReplay(t *testing.T, c *Catalog, tr Trace, pols []Policy) {
	t.Helper()
	got, err := c.Replay(tr, pols)
	want, wantErr := replayRef(c, tr, pols)
	_, strictErr := c.SelectStrict(tr.Max())
	if (err != nil) != (strictErr != nil) || (wantErr != nil) != (strictErr != nil) {
		t.Fatalf("Replay err = %v, reference err = %v, SelectStrict(Max) err = %v", err, wantErr, strictErr)
	}
	if err != nil {
		var be, wbe *BudgetError
		if !errors.As(err, &be) || !errors.As(wantErr, &wbe) || !errors.Is(err, ErrBudgetInfeasible) {
			t.Fatalf("Replay err %T %v, want a *BudgetError like %v", err, err, wantErr)
		}
		if be.Model != wbe.Model || be.Cheapest != wbe.Cheapest ||
			math.Float64bits(be.Budget) != math.Float64bits(wbe.Budget) {
			t.Fatalf("Replay err %+v, reference %+v", be, wbe)
		}
	} else {
		for i := range pols {
			if !sameResult(got[i], want[i]) {
				t.Fatalf("policy %d %+v: Replay = %+v, reference = %+v", i, pols[i], got[i], want[i])
			}
		}
	}
	for _, p := range pols {
		switch {
		case p.Static:
			if got, want := c.SimulateStatic(p.Pin, tr), catalogSimulateStaticRef(c, p.Pin, tr); !sameResult(got, want) {
				t.Fatalf("Catalog.SimulateStatic(%+v) = %+v, reference = %+v", p.Pin, got, want)
			}
			if got, want := SimulateStatic(p.Pin, tr), simulateStaticRef(p.Pin, tr); !sameResult(got, want) {
				t.Fatalf("SimulateStatic(%+v) = %+v, reference = %+v", p.Pin, got, want)
			}
		case p.Hysteresis > 1:
			if got, want := c.SimulateHysteresis(tr, p.Hysteresis), simulateHysteresisRef(c, tr, p.Hysteresis); !sameResult(got, want) {
				t.Fatalf("SimulateHysteresis(k=%d) = %+v, reference = %+v", p.Hysteresis, got, want)
			}
		default:
			if got, want := c.Simulate(tr), simulateRef(c, tr); !sameResult(got, want) {
				t.Fatalf("Simulate = %+v, reference = %+v", got, want)
			}
		}
	}
}

// TestReplayMatchesReference pins the fused kernel against the
// per-policy reference loops on every index-test catalog shape, the
// three generator shapes plus threshold-exact, repeated and special
// budgets, and policy panels from a lone static pin to every kind mixed.
func TestReplayMatchesReference(t *testing.T) {
	for name, c := range indexTestCatalogs() {
		lo, hi := c.Cheapest().Cost*0.5, c.Full().Cost*1.2
		traces := map[string]Trace{
			"sinusoid": SinusoidTrace(257, lo, hi, 31),
			"step":     StepTrace(200, lo, hi, 7),
			"bursty":   BurstyTrace(300, lo, hi, 0.4, 9),
			"budgets":  Trace(budgetsFor(c)),
			"repeats":  {0, 0, c.Full().Cost, c.Full().Cost, c.Full().Cost, lo, lo, math.NaN(), math.NaN(), hi},
			"empty":    {},
			"hopeless": {0, lo * 0.1, 0},
		}
		offCatalog := Path{Label: "elsewhere", Cost: c.Full().Cost * 0.75, Accuracy: 0.5}
		panels := map[string][]Policy{
			"none":    nil,
			"default": {DynamicPolicy(), StaticPolicy(c.Full()), StaticPolicy(c.Cheapest())},
			"hyst":    {DynamicPolicy(), StaticPolicy(c.Full()), StaticPolicy(c.Cheapest()), HysteresisPolicy(4)},
			"static":  {StaticPolicy(offCatalog)},
			"every": {HysteresisPolicy(2), HysteresisPolicy(1), StaticPolicy(offCatalog), DynamicPolicy(),
				HysteresisPolicy(7), DynamicPolicy(), HysteresisPolicy(-3), StaticPolicy(c.Paths[len(c.Paths)/2])},
		}
		for tn, tr := range traces {
			for pn, pols := range panels {
				t.Run(name+"/"+tn+"/"+pn, func(t *testing.T) { checkReplay(t, c, tr, pols) })
			}
		}
	}
}

func TestReplayInfeasibleTrace(t *testing.T) {
	c := hystCatalog(t)
	_, err := c.Replay(Trace{1, 1.5, 0.5}, []Policy{DynamicPolicy()})
	var be *BudgetError
	if !errors.As(err, &be) || be.Budget != 1.5 || be.Cheapest != 2 || be.Model != "m" {
		t.Fatalf("err = %v, want *BudgetError{m, budget 1.5, cheapest 2}", err)
	}
	// One feasible frame is enough: the check is on the trace maximum.
	if _, err := c.Replay(Trace{1, 2, 0.5}, []Policy{DynamicPolicy()}); err != nil {
		t.Fatalf("feasible peak: %v", err)
	}
}

func TestReplayEmptyCatalog(t *testing.T) {
	if _, err := (&Catalog{Model: "empty"}).Replay(Trace{1, 2}, []Policy{DynamicPolicy()}); err == nil {
		t.Fatal("replay against an empty catalog succeeded")
	}
}

// TestReplayFrameLoopAllocFree pins that Replay's allocations are all
// set-up: a 50-frame and a 20 000-frame replay allocate the same.
func TestReplayFrameLoopAllocFree(t *testing.T) {
	c := hystCatalog(t)
	pols := []Policy{DynamicPolicy(), StaticPolicy(c.Full()), StaticPolicy(c.Cheapest()), HysteresisPolicy(4)}
	short := SinusoidTrace(50, 2.1, 9, 30)
	long := SinusoidTrace(20000, 2.1, 9, 30)
	replay := func(tr Trace) func() {
		return func() {
			if _, err := c.Replay(tr, pols); err != nil {
				t.Fatal(err)
			}
		}
	}
	if s, l := testing.AllocsPerRun(20, replay(short)), testing.AllocsPerRun(20, replay(long)); s != l {
		t.Fatalf("allocs per replay: %v at 50 frames, %v at 20000 — the frame loop allocates", s, l)
	}
}

// decodeReplayCase turns fuzz bytes into a hand-assembled catalog (so
// duplicate labels, equal costs and exact accuracy ties all occur), a
// policy panel of any mix, and a trace whose budgets land on path costs
// exactly, on zero, on NaN and the infinities, and in repeated runs.
func decodeReplayCase(data []byte) (*Catalog, []Policy, Trace) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	n := 1 + int(next()%12)
	c := &Catalog{Model: "fuzz"}
	for i := 0; i < n; i++ {
		lb, cb, ab := next(), next(), next()
		c.Paths = append(c.Paths, Path{
			Label:    string(rune('a' + lb%6)),
			Cost:     0.5 + float64(cb%16)*0.5, // 0.5 .. 8 in halves
			Accuracy: float64(ab%9) / 8,        // 0 .. 1 in eighths
		})
	}
	pols := make([]Policy, next()%8)
	for i := range pols {
		b := next()
		switch arg := int(b >> 2); b % 4 {
		case 0:
			pols[i] = DynamicPolicy()
		case 1:
			pols[i] = HysteresisPolicy(arg%8 - 1) // -1 .. 6: k <= 1 included
		case 2:
			pols[i] = StaticPolicy(c.Paths[arg%n])
		default: // a pin that need not be in the catalog
			pols[i] = StaticPolicy(Path{Label: string(rune('a' + arg%7)), Cost: 0.5 + float64(arg%16)*0.5, Accuracy: 0.5})
		}
	}
	var tr Trace
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
	for len(data) > 0 {
		switch b := next(); {
		case b >= 0xc0: // a run repeating the last budget
			last := 0.0
			if len(tr) > 0 {
				last = tr[len(tr)-1]
			}
			for r := 0; r <= int(b&0x3f); r++ {
				tr = append(tr, last)
			}
		case b >= 0xbc:
			tr = append(tr, specials[b-0xbc])
		default:
			tr = append(tr, float64(b%40)*0.25) // 0 .. 9.75 in quarters: every cost exactly
		}
	}
	return c, pols, tr
}

// FuzzReplay is the differential check on the fused kernel: on any
// catalog, panel and trace the bytes decode to, Catalog.Replay and the
// single-policy calls equal the pre-fusion per-policy loops, and Replay
// fails exactly when SelectStrict(tr.Max()) does. The committed corpus
// under testdata/fuzz/FuzzReplay runs with every go test.
func FuzzReplay(f *testing.F) {
	f.Add([]byte("\x03a\x02\x04b\x06\x08c\x0a\x0c\x04\x00\x09\x02\x03\x04\x08\x0c\x10\x14\xc5\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, pols, tr := decodeReplayCase(data)
		checkReplay(t, c, tr, pols)
	})
}

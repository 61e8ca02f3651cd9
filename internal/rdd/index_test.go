package rdd

import (
	"fmt"
	"math"
	"testing"
)

// indexTestCatalogs covers the shapes the index must agree with Select
// on: clean frontiers, duplicate costs, duplicate accuracies, exact
// (cost, accuracy) ties, dominated paths, unsorted Paths order, and a
// single-path catalog. Hand-assembled (not via NewCatalog) because
// Select's contract is "reads the current Paths, whatever they are" —
// the index must match even on catalogs a constructor would have
// Pareto-reduced.
func indexTestCatalogs() map[string]*Catalog {
	return map[string]*Catalog{
		"frontier": {Model: "m", Paths: []Path{
			{Label: "a", Cost: 1, Accuracy: 0.2},
			{Label: "b", Cost: 2, Accuracy: 0.5},
			{Label: "c", Cost: 4, Accuracy: 0.7},
			{Label: "d", Cost: 8, Accuracy: 0.9},
		}},
		"single": {Model: "m", Paths: []Path{
			{Label: "only", Cost: 3, Accuracy: 0.5},
		}},
		"dup-costs": {Model: "m", Paths: []Path{
			{Label: "a", Cost: 2, Accuracy: 0.3},
			{Label: "b", Cost: 2, Accuracy: 0.6}, // same cost, better accuracy
			{Label: "c", Cost: 5, Accuracy: 0.8},
			{Label: "d", Cost: 5, Accuracy: 0.4}, // dominated at its own cost
		}},
		"dup-accuracy": {Model: "m", Paths: []Path{
			{Label: "cheap", Cost: 1, Accuracy: 0.5},
			{Label: "dear", Cost: 3, Accuracy: 0.5}, // equal accuracy, pricier
			{Label: "top", Cost: 6, Accuracy: 0.9},
		}},
		"exact-tie": {Model: "m", Paths: []Path{
			{Label: "first", Cost: 2, Accuracy: 0.5},
			{Label: "second", Cost: 2, Accuracy: 0.5}, // full tie: first-seen must win
			{Label: "third", Cost: 4, Accuracy: 0.6},
		}},
		"unsorted": {Model: "m", Paths: []Path{
			{Label: "d", Cost: 8, Accuracy: 0.9},
			{Label: "a", Cost: 1, Accuracy: 0.2},
			{Label: "c", Cost: 4, Accuracy: 0.7},
			{Label: "b", Cost: 2, Accuracy: 0.5},
		}},
		"dominated": {Model: "m", Paths: []Path{
			{Label: "a", Cost: 1, Accuracy: 0.4},
			{Label: "junk", Cost: 5, Accuracy: 0.1}, // worse and pricier
			{Label: "b", Cost: 3, Accuracy: 0.7},
		}},
	}
}

// budgetsFor sweeps every interesting budget for a catalog: each path
// cost exactly, just below and above it, below the cheapest, above the
// priciest, plus NaN and the infinities.
func budgetsFor(c *Catalog) []float64 {
	budgets := []float64{0, math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, p := range c.Paths {
		budgets = append(budgets, p.Cost, p.Cost-1e-9, p.Cost+1e-9, p.Cost*0.5, p.Cost*1.5)
	}
	return budgets
}

func TestSelectIndexMatchesLinearSelect(t *testing.T) {
	for name, c := range indexTestCatalogs() {
		ix := c.NewSelectIndex()
		for _, budget := range budgetsFor(c) {
			wantP, wantOK := c.Select(budget)
			gotP, gotOK := ix.Select(budget)
			if wantOK != gotOK || wantP != gotP {
				t.Errorf("%s: budget %v: index Select = (%+v, %v), linear Select = (%+v, %v)",
					name, budget, gotP, gotOK, wantP, wantOK)
			}
		}
	}
}

func TestSelectIndexMatchesOnRandomCatalogs(t *testing.T) {
	// Deterministic LCG catalogs with heavy duplication: costs drawn
	// from a small integer set so equal-cost and equal-accuracy
	// collisions are common, Paths left in generation order (unsorted).
	r := lcg(42)
	for trial := 0; trial < 50; trial++ {
		n := 1 + int(r.next()*40)
		c := &Catalog{Model: "rand"}
		for i := 0; i < n; i++ {
			c.Paths = append(c.Paths, Path{
				Label:    fmt.Sprintf("p%d", i),
				Cost:     1 + math.Floor(r.next()*8),
				Accuracy: math.Floor(r.next()*5) / 5,
			})
		}
		ix := c.NewSelectIndex()
		for _, budget := range budgetsFor(c) {
			wantP, wantOK := c.Select(budget)
			gotP, gotOK := ix.Select(budget)
			if wantOK != gotOK || wantP != gotP {
				t.Fatalf("trial %d (%d paths): budget %v: index = (%+v, %v), linear = (%+v, %v)\npaths: %+v",
					trial, n, budget, gotP, gotOK, wantP, wantOK, c.Paths)
			}
		}
	}
}

func TestSelectIndexEmptyCatalog(t *testing.T) {
	c := &Catalog{Model: "empty"}
	ix := c.NewSelectIndex()
	if p, ok := ix.Select(math.Inf(1)); ok {
		t.Fatalf("empty catalog selected %+v", p)
	}
}

// TestSimulateMatchesLinearReference pins the index-backed Simulate and
// SimulateHysteresis against the per-frame linear-scan reference on
// every catalog shape and several trace shapes — results must be
// exactly equal, not approximately.
func TestSimulateMatchesLinearReference(t *testing.T) {
	for name, c := range indexTestCatalogs() {
		lo, hi := c.Cheapest().Cost*0.5, c.Full().Cost*1.2
		traces := map[string]Trace{
			"sinusoid": SinusoidTrace(257, lo, hi, 31),
			"step":     StepTrace(200, lo, hi, 7),
			"bursty":   BurstyTrace(300, lo, hi, 0.4, 9),
			"empty":    {},
		}
		for tn, tr := range traces {
			if got, want := c.Simulate(tr), simulateWith(c, tr, c.Select); got != want {
				t.Errorf("%s/%s: Simulate = %+v, linear reference = %+v", name, tn, got, want)
			}
			for _, k := range []int{0, 1, 2, 3, 7} {
				got := c.SimulateHysteresis(tr, k)
				want := simulateHysteresisWith(c, tr, k, c.Select)
				if got != want {
					t.Errorf("%s/%s k=%d: SimulateHysteresis = %+v, linear reference = %+v", name, tn, k, got, want)
				}
			}
		}
	}
}

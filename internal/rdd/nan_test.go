package rdd

import (
	"math"
	"strings"
	"testing"
)

// TestValidatePathRejectsNonFinite: every ordered comparison with NaN is
// false, so NaN costs and accuracies must be rejected explicitly.
func TestValidatePathRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, p := range []Path{
		{Label: "nan-cost", Cost: nan, Accuracy: 0.5},
		{Label: "inf-cost", Cost: inf, Accuracy: 0.5},
		{Label: "neg-inf-cost", Cost: -inf, Accuracy: 0.5},
		{Label: "nan-acc", Cost: 1, Accuracy: nan},
		{Label: "inf-acc", Cost: 1, Accuracy: inf},
	} {
		if err := ValidatePath(p); err == nil {
			t.Errorf("ValidatePath accepted %s", p.Label)
		}
	}
	if _, err := NewCatalog("m", []Path{{Label: "nan", Cost: nan, Accuracy: 0.5}}); err == nil {
		t.Error("NewCatalog accepted a NaN cost")
	}
	if err := ValidatePath(Path{Label: "ok", Cost: 1e-9, Accuracy: 1}); err != nil {
		t.Errorf("ValidatePath rejected a valid path: %v", err)
	}
}

// TestReplayNaNCostCatalog: a hand-assembled catalog holding a NaN cost
// is an error from Replay, not a panic; building its select index (the
// single-policy Simulate path) terminates.
func TestReplayNaNCostCatalog(t *testing.T) {
	for _, paths := range [][]Path{
		{{Label: "nan", Cost: math.NaN(), Accuracy: 0.4}},
		{{Label: "cheap", Cost: 1, Accuracy: 0.3}, {Label: "nan", Cost: math.NaN(), Accuracy: 0.4}, {Label: "full", Cost: 3, Accuracy: 0.5}},
		{{Label: "nan1", Cost: math.NaN(), Accuracy: 0.4}, {Label: "nan2", Cost: math.NaN(), Accuracy: 0.4}},
	} {
		c := &Catalog{Model: "hand", Paths: paths}
		tr := Trace{0.5, 2, 4}
		_, err := c.Replay(tr, []Policy{DynamicPolicy(), HysteresisPolicy(3), StaticPolicy(paths[0])})
		if err == nil || !strings.Contains(err.Error(), "non-finite cost") {
			t.Errorf("%d paths: Replay error %v, want a non-finite cost error", len(paths), err)
		}
		c.NewSelectIndex()
		_ = c.Simulate(tr)
	}
}

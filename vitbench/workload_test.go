package main

import (
	"bytes"
	"testing"

	"vitdyn/internal/serve"
)

func TestSameSeedSameRequests(t *testing.T) {
	for _, name := range workloadNames() {
		w := workloads[name]
		a, b, other := newTraffic(w, 7), newTraffic(w, 7), newTraffic(w, 8)
		ra := append(append([]request{}, a.setup...), a.take(3000, w.rate)...)
		rb := append(append([]request{}, b.setup...), b.take(3000, w.rate)...)
		ro := append(append([]request{}, other.setup...), other.take(3000, w.rate)...)
		differs := false
		for i := range ra {
			if !bytes.Equal(ra[i].raw, rb[i].raw) {
				t.Fatalf("%s: request %d differs between two runs of seed 7:\n%s\n%s", name, i, ra[i].raw, rb[i].raw)
			}
			differs = differs || !bytes.Equal(ra[i].raw, ro[i].raw)
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 produced the same requests", name)
		}
	}
}

func TestColdSpecsNeverRepeat(t *testing.T) {
	for name, n := range map[string]int{"cold": 3000, "mixed": 200_000} {
		tr := newTraffic(workloads[name], 1)
		seen := map[serve.CatalogRequest]bool{}
		cold := 0
		for _, r := range tr.take(n, workloads[name].rate) {
			if r.kind != kindCold && r.kind != kindColdBatch {
				continue
			}
			for _, s := range r.specs {
				if seen[s] {
					t.Fatalf("%s: cold spec %+v repeats", name, s)
				}
				seen[s] = true
				cold++
			}
		}
		if cold < 500 {
			t.Fatalf("%s: only %d cold specs in %d requests", name, cold, n)
		}
	}
}

func TestReplayTracesNeverRepeat(t *testing.T) {
	seen := map[string]bool{}
	for _, r := range newTraffic(workloads["replay"], 1).take(5000, 200) {
		if seen[string(r.body)] {
			t.Fatalf("replay body repeats: %s", r.body)
		}
		seen[string(r.body)] = true
	}
}

// Every run of whole cold blocks prices the same (model, step) cells,
// whatever the seed: only order and backend pairing change.
func TestColdBlocksCoverTheGrid(t *testing.T) {
	block := len(coldModels) * coldGrid
	cells := func(seed int64) map[[2]any]int {
		c := map[[2]any]int{}
		for _, r := range newTraffic(workloads["cold"], seed).take(block, 3) {
			s := r.specs[0]
			c[[2]any{s.Family + s.Dataset + s.Variant, s.Step}]++
		}
		return c
	}
	a, b := cells(1), cells(2)
	if len(a) != block {
		t.Fatalf("a block covers %d cells, want %d", len(a), block)
	}
	for k, n := range a {
		if n != 1 || b[k] != 1 {
			t.Fatalf("cell %v drawn %d and %d times in two seeds' first blocks", k, n, b[k])
		}
	}
}

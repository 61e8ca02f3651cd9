package rdd

// SelectIndex: the replay fast path. Select scans every path per call,
// which is fine for a one-off budget query but would make a replay pay
// frames × paths comparisons against a wide catalog (hundreds of
// frontier points). The selection function is monotone in the budget:
// the feasible set only grows as the budget rises, so the winner changes
// at a bounded set of cost thresholds. Catalog.Replay builds that
// threshold table once per call and shares it across every dynamic
// policy; frames locate their threshold interval by binary search, and
// a run of frames in one interval shares one search. Results are
// exactly equal to Select's, tie rules included. Each winner's cost is
// the threshold it was recorded at (the winner only changes when a path
// of the newly feasible cost beats it), which the hysteresis controller
// relies on.

import (
	"cmp"
	"slices"
	"sort"
)

// SelectIndex is a budget-sorted threshold index over a snapshot of a
// catalog's paths. thresholds is ascending; winners[i] is the path
// Select would return for any budget in [thresholds[i], thresholds[i+1]).
// A budget below thresholds[0] fits no path. The index is immutable
// once built and safe for concurrent readers; it reflects the Paths
// slice as of NewSelectIndex, so callers that mutate Paths in place must
// rebuild it (Catalog.Replay, and so every Simulate* call, builds a
// fresh index per call, preserving Select's read-the-current-Paths
// semantics at call granularity).
type SelectIndex struct {
	thresholds []float64
	winners    []Path
}

// NewSelectIndex builds the threshold index for the catalog's current
// paths: O(n log n) once, O(log n) per Select after. The winner at each
// threshold is computed with Select's exact semantics — highest accuracy
// under budget, ties to the cheaper path, first-seen (Paths order) on
// exact ties — so index selections are byte-identical to linear ones.
func (c *Catalog) NewSelectIndex() *SelectIndex {
	thresholds, winners := c.selectThresholds()
	ix := &SelectIndex{thresholds: thresholds, winners: make([]Path, len(winners))}
	for i, w := range winners {
		ix.winners[i] = c.Paths[w]
	}
	return ix
}

// selectThresholds computes the index over the current paths: the
// ascending thresholds, and for each the Paths index of the winner from
// that threshold up to the next.
func (c *Catalog) selectThresholds() (thresholds []float64, winners []int) {
	n := len(c.Paths)
	ord := make([]int, n)
	for i := range ord {
		ord[i] = i
	}
	slices.SortFunc(ord, func(a, b int) int { return cmp.Compare(c.Paths[a].Cost, c.Paths[b].Cost) })
	// Walk paths in ascending cost order, maintaining the running winner
	// under Select's comparison. beats replicates Select's replacement
	// rule as a total order: strictly higher accuracy wins, equal
	// accuracy prefers the cheaper path, and a full (accuracy, cost) tie
	// keeps the earlier Paths index — Select scans in Paths order and
	// never replaces on an exact tie.
	beats := func(pi, wi int) bool {
		p, w := c.Paths[pi], c.Paths[wi]
		if p.Accuracy != w.Accuracy {
			return p.Accuracy > w.Accuracy
		}
		if p.Cost != w.Cost {
			return p.Cost < w.Cost
		}
		return pi < wi
	}
	thresholds, winners = make([]float64, 0, n), make([]int, 0, n)
	winner := -1
	for i := 0; i < n; {
		cost := c.Paths[ord[i]].Cost
		// Paths sharing one cost become feasible together: fold the whole
		// equal-cost group before recording a threshold. The group always
		// takes its first path, so a NaN cost (equal to nothing, itself
		// included) forms a group of one instead of stalling the walk.
		for j := i; i < n && (i == j || c.Paths[ord[i]].Cost == cost); i++ {
			if winner < 0 || beats(ord[i], winner) {
				winner = ord[i]
			}
		}
		if k := len(winners); k == 0 || c.Paths[winners[k-1]] != c.Paths[winner] {
			thresholds = append(thresholds, cost)
			winners = append(winners, winner)
		}
	}
	return thresholds, winners
}

// Select returns the most accurate path whose cost fits the budget —
// exactly Catalog.Select over the indexed snapshot — in O(log n).
func (ix *SelectIndex) Select(budget float64) (Path, bool) {
	// Number of thresholds <= budget; sort.Search on the monotone
	// predicate handles NaN budgets the same way the linear scan does
	// (every comparison false, so every path is feasible).
	k := sort.Search(len(ix.thresholds), func(i int) bool { return ix.thresholds[i] > budget })
	if k == 0 {
		return Path{}, false
	}
	return ix.winners[k-1], true
}

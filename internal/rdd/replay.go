package rdd

// One-pass replay. The paper's result is a comparison — dynamic path
// selection against static full and static worst-case pins on the same
// fluctuating budget trace — so a replay almost always evaluates several
// policies over one trace. Catalog.Replay walks the trace once for all of
// them: it folds the trace maximum (the feasibility bound) as it goes,
// finds the dynamic winner once per run of frames through the
// SelectIndex thresholds, advances the free dynamic controller and every
// hysteresis controller from that shared winner, and counts static pins
// per budget interval. Simulate, SimulateHysteresis and SimulateStatic
// are single-policy calls into the same kernel, so there is exactly one
// frame loop; per-policy sums accumulate in frame order, so every result
// is bit-identical to a separate pass per policy.

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// Policy is one path-selection policy for Replay: the dynamic
// controller, optionally damped by switching hysteresis, or a static pin.
// The zero value is the free dynamic controller.
type Policy struct {
	// Static pins Pin on every frame whose budget covers its cost and
	// skips the others; when false the policy selects dynamically.
	Static bool
	Pin    Path
	// Hysteresis > 1 damps the dynamic controller exactly as
	// SimulateHysteresis does; <= 1 switches freely. Ignored for static
	// policies.
	Hysteresis int
}

// DynamicPolicy is the paper's controller: the most accurate path that
// fits each frame's budget.
func DynamicPolicy() Policy { return Policy{} }

// HysteresisPolicy is the dynamic controller damped by k-frame switching
// hysteresis (see SimulateHysteresis).
func HysteresisPolicy(k int) Policy { return Policy{Hysteresis: k} }

// StaticPolicy pins path p on every frame (see Catalog.SimulateStatic).
func StaticPolicy(p Path) Policy { return Policy{Static: true, Pin: p} }

// Replay replays the trace under every policy in one pass and returns one
// SimResult per policy, in order, each bit-identical to the matching
// single-policy call (Simulate, SimulateHysteresis, SimulateStatic). An
// infeasible trace — even its largest budget (Trace.Max) below every
// path, so no policy could complete a frame — is a *BudgetError rather
// than a set of all-skipped results, exactly when SelectStrict(tr.Max())
// fails. A catalog with no paths, or with a path ValidatePath rejects
// (a hand-assembled catalog holding a NaN cost, say), is an error too.
func (c *Catalog) Replay(tr Trace, pols []Policy) ([]SimResult, error) {
	if len(c.Paths) == 0 {
		return nil, fmt.Errorf("rdd: catalog %q has no paths", c.Model)
	}
	for _, p := range c.Paths {
		if err := ValidatePath(p); err != nil {
			return nil, fmt.Errorf("rdd: catalog %q: %w", c.Model, err)
		}
	}
	out := make([]SimResult, len(pols))
	max := c.replay(tr, pols, out)
	if _, err := c.SelectStrict(max); err != nil {
		return nil, err
	}
	return out, nil
}

// replayOne runs the kernel for a single policy, without the feasibility
// check — a single-policy replay reports an infeasible trace as skipped
// frames, as it always has.
func (c *Catalog) replayOne(tr Trace, p Policy) SimResult {
	var out [1]SimResult
	c.replay(tr, []Policy{p}, out[:])
	return out[0]
}

// winner is one SelectIndex winner, flattened for the frame loop: labels
// compare as interned ids (equal ids exactly when labels are equal) and
// the full-path test is precomputed, so no frame compares strings.
type winner struct {
	cost, acc float64
	label     int32
	full      bool
}

// tally is one policy's running totals, accumulated in frame order.
type tally struct {
	completed, skipped, switches, full int
	acc, cost                          float64
}

// run records a completed frame on winner w; switched reports a path
// change from the previous completed frame.
func (t *tally) run(w *winner, switched bool) {
	if switched {
		t.switches++
	}
	t.completed++
	t.acc += w.acc
	t.cost += w.cost
	if w.full {
		t.full++
	}
}

func (t *tally) result(frames int) SimResult {
	res := SimResult{Frames: frames, Completed: t.completed, Skipped: t.skipped, Switches: t.switches}
	if t.completed > 0 {
		res.MeanAccuracy = t.acc / float64(t.completed)
		res.MeanCost = t.cost / float64(t.completed)
		res.FullPathShare = float64(t.full) / float64(t.completed)
	}
	return res
}

// hysteresis is one damped controller's state: cur and pending are
// winner indexes and label ids, -1 for none.
type hysteresis struct {
	k, cur, out int
	pending     int32
	streak      int
	tally
}

// advance runs the controller over n consecutive frames whose dynamic
// winner is w (-1: no path fits) and whose budgets all lie in one
// interval with lower bound floor. Every winner's cost is a breakpoint,
// so whether the current path still fits is the same for every budget in
// the interval, and testing it against floor decides it for all of them.
func (hs *hysteresis) advance(win []winner, w int, floor float64, n int) {
	if w < 0 {
		hs.skipped += n
		hs.pending, hs.streak = -1, 0
		return
	}
	want := &win[w]
	for ; n > 0; n-- {
		run := w
		switch {
		case hs.cur < 0:
			// First completed frame: adopt the selection outright.
		case want.label == win[hs.cur].label:
			run = hs.cur
			hs.pending, hs.streak = -1, 0
		case win[hs.cur].cost > floor:
			// Forced switch: the current path no longer fits this frame.
			hs.pending, hs.streak = -1, 0
		default:
			if want.label == hs.pending {
				hs.streak++
			} else {
				hs.pending, hs.streak = want.label, 1
			}
			if hs.streak >= hs.k {
				hs.pending, hs.streak = -1, 0 // commit the switch
			} else {
				run = hs.cur // hold the line
			}
		}
		hs.run(&win[run], hs.completed > 0 && win[run].label != win[hs.cur].label)
		hs.cur = run
	}
}

// replay is the one frame loop behind every replay entry point. It fills
// out[i] for pols[i] and returns Trace.Max of tr, computed with the same
// comparison rule in the same pass.
//
// The budget axis is cut at breakpoints: every SelectIndex threshold and
// every static pin's cost. Inside one interval between breakpoints the
// dynamic winner is constant and each static pin either fits every
// budget or none, so the loop finds the frame's interval, counts the
// frame there, and advances the dynamic controllers from the interval's
// winner; static results are a compare-and-count over the interval
// counts at the end. Dynamic sums accumulate per frame, in frame order.
func (c *Catalog) replay(tr Trace, pols []Policy, out []SimResult) (max float64) {
	fullLabel, haveFull := "", len(c.Paths) > 0
	if haveFull {
		fullLabel = c.Full().Label
	}
	var (
		hyst    []hysteresis
		th      []float64 // SelectIndex thresholds
		win     []winner  // and their winners
		dynamic bool
		pins    int
	)
	for i, p := range pols {
		switch {
		case p.Static:
			pins++
		case p.Hysteresis > 1:
			hyst = append(hyst, hysteresis{k: p.Hysteresis, cur: -1, out: i, pending: -1})
		default:
			dynamic = true
		}
	}
	if dynamic || len(hyst) > 0 {
		var paths []int
		th, paths = c.selectThresholds()
		win = make([]winner, len(paths))
		for i, pi := range paths {
			p := c.Paths[pi]
			win[i] = winner{cost: p.Cost, acc: p.Accuracy, label: int32(i), full: haveFull && p.Label == fullLabel}
		}
		// Intern labels: sorted by label, winners sharing one take the
		// first one's id.
		byLabel := make([]int, len(paths))
		for i := range byLabel {
			byLabel[i] = i
		}
		label := func(i int) string { return c.Paths[paths[i]].Label }
		slices.SortFunc(byLabel, func(a, b int) int { return strings.Compare(label(a), label(b)) })
		for k := 1; k < len(byLabel); k++ {
			if prev, cur := byLabel[k-1], byLabel[k]; label(prev) == label(cur) {
				win[cur].label = win[prev].label
			}
		}
	}
	bp := th // breakpoints, strictly ascending
	if pins > 0 {
		bp = make([]float64, 0, pins+len(th))
		for _, p := range pols {
			if p.Static && !math.IsNaN(p.Pin.Cost) { // a NaN cost fits every budget
				bp = append(bp, p.Pin.Cost)
			}
		}
		bp = append(bp, th...)
		slices.Sort(bp)
		bp = slices.Compact(bp)
	}
	// Interval i holds the budgets in [floor(i), bp[i]): floor(0) is -Inf
	// and the last interval is unbounded above. A NaN budget fails every
	// comparison, so the search puts it in the last interval, where every
	// path and every pin fits — as Select and the static pin test treat it.
	floor := func(i int) float64 {
		if i == 0 {
			return math.Inf(-1)
		}
		return bp[i-1]
	}
	// Each interval's dynamic winner (-1: no path fits) and frame count.
	// The thresholds are breakpoints, so the count of thresholds at or
	// below floor(i) is the count at or below any budget in interval i.
	type interval struct{ win, frames int }
	ivs := make([]interval, len(bp)+1)
	for i, k := 0, 0; i < len(ivs); i++ {
		for k < len(th) && !(th[k] > floor(i)) {
			k++
		}
		ivs[i].win = k - 1
	}

	// The trace splits into runs of consecutive frames in one interval.
	// The outer loop finds each run's interval with one search; the inner
	// loop extends the run over every following budget inside it —
	// repeats of one budget included — folding the trace maximum and the
	// free dynamic controller's two sums as it goes. A skipped frame adds
	// +0, which leaves a sum that starts at +0 bit-for-bit unchanged, so
	// the sums need no branch. Everything else is per run: the free
	// controller can only switch where a run starts, its completed and
	// full-path frames are interval counts, and each hysteresis
	// controller advances over the run's frames from the run's winner.
	var (
		dynAcc, dynCost float64
		dynSwitches     int
	)
	dynPrev := int32(-1) // label of the free controller's last completed frame
	if len(tr) > 0 {
		max = tr[0]
	}
	for f := 0; f < len(tr); {
		v := tr[f]
		i := search(bp, v)
		lo, hi, w := floor(i), math.Inf(1), ivs[i].win
		if i < len(bp) {
			hi = bp[i]
		}
		var wAcc, wCost float64
		if w >= 0 {
			wAcc, wCost = win[w].acc, win[w].cost
			if dynPrev >= 0 && win[w].label != dynPrev {
				dynSwitches++
			}
			dynPrev = win[w].label
		}
		start := f
		// The run's first frame is in interval i by the search, even when
		// the range test below rejects it (a NaN budget).
		for {
			if v > max {
				max = v
			}
			dynAcc += wAcc
			dynCost += wCost
			if f++; f == len(tr) {
				break
			}
			if v = tr[f]; !(v >= lo && v < hi) {
				break
			}
		}
		ivs[i].frames += f - start
		for h := range hyst {
			hyst[h].advance(win, w, lo, f-start)
		}
	}

	frames := len(tr)
	dyn := tally{switches: dynSwitches, acc: dynAcc, cost: dynCost}
	for _, iv := range ivs {
		if iv.win >= 0 {
			dyn.completed += iv.frames
			if win[iv.win].full {
				dyn.full += iv.frames
			}
		}
	}
	dyn.skipped = frames - dyn.completed
	dynRes := dyn.result(frames)
	for i, p := range pols {
		switch {
		case p.Static:
			res := SimResult{Frames: frames}
			for j, iv := range ivs {
				if p.Pin.Cost > floor(j) {
					res.Skipped += iv.frames
				} else {
					res.Completed += iv.frames
				}
			}
			if res.Completed > 0 {
				res.MeanAccuracy = p.Pin.Accuracy
				res.MeanCost = p.Pin.Cost
				if haveFull && p.Pin.Label == fullLabel {
					res.FullPathShare = 1
				}
			}
			out[i] = res
		case p.Hysteresis <= 1:
			out[i] = dynRes
		}
	}
	for h := range hyst {
		out[hyst[h].out] = hyst[h].result(frames)
	}
	return max
}

// search is sort.Search's result for the predicate ts[i] > v, computed
// without data-dependent branches: the number of ts at or below v when
// ts is ascending, len(ts) for a NaN v.
func search(ts []float64, v float64) int {
	n := len(ts)
	if n == 0 {
		return 0
	}
	base := 0
	for n > 1 {
		half := n / 2
		if !(ts[base+half] > v) {
			base += half
		}
		n -= half
	}
	if !(ts[base] > v) {
		base++
	}
	return base
}

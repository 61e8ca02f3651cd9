package rdd

// The per-policy replay loops as they stood before Catalog.Replay fused
// them into one pass: one walk of the trace for Trace.Max, then one walk
// per policy, each dynamic walk building its own SelectIndex. They are
// the reference the fused kernel is pinned against (bit for bit, in the
// tests and FuzzReplay) and measured against (BenchmarkReplayPanel).
// The dynamic loops take their per-frame selector as a parameter, so
// with Catalog.Select they are also the linear-scan reference the
// SelectIndex is pinned against.

// selector picks the path for one frame's budget.
type selector func(budget float64) (Path, bool)

// simulateRef is the pre-fusion Catalog.Simulate.
func simulateRef(c *Catalog, tr Trace) SimResult {
	return simulateWith(c, tr, c.NewSelectIndex().Select)
}

// simulateHysteresisRef is the pre-fusion Catalog.SimulateHysteresis.
func simulateHysteresisRef(c *Catalog, tr Trace, k int) SimResult {
	return simulateHysteresisWith(c, tr, k, c.NewSelectIndex().Select)
}

// simulateWith is the free dynamic controller's loop over sel.
func simulateWith(c *Catalog, tr Trace, sel selector) SimResult {
	res := SimResult{Frames: len(tr)}
	full := c.Full()
	var accSum, costSum float64
	fullCount := 0
	prevLabel := ""
	for _, budget := range tr {
		p, ok := sel(budget)
		if !ok {
			res.Skipped++
			continue
		}
		if res.Completed > 0 && p.Label != prevLabel {
			res.Switches++
		}
		prevLabel = p.Label
		res.Completed++
		accSum += p.Accuracy
		costSum += p.Cost
		if p.Label == full.Label {
			fullCount++
		}
	}
	if res.Completed > 0 {
		res.MeanAccuracy = accSum / float64(res.Completed)
		res.MeanCost = costSum / float64(res.Completed)
		res.FullPathShare = float64(fullCount) / float64(res.Completed)
	}
	return res
}

// simulateHysteresisWith is the hysteresis controller's loop over sel.
func simulateHysteresisWith(c *Catalog, tr Trace, k int, sel selector) SimResult {
	if k <= 1 {
		return simulateWith(c, tr, sel)
	}
	res := SimResult{Frames: len(tr)}
	full := c.Full()
	var accSum, costSum float64
	fullCount := 0
	var cur Path
	haveCur := false
	pendingLabel := ""
	streak := 0
	for _, budget := range tr {
		want, ok := sel(budget)
		if !ok {
			res.Skipped++
			pendingLabel, streak = "", 0
			continue
		}
		run := want
		switch {
		case !haveCur:
		case want.Label == cur.Label:
			run = cur
			pendingLabel, streak = "", 0
		case cur.Cost > budget:
			pendingLabel, streak = "", 0
		default:
			if want.Label == pendingLabel {
				streak++
			} else {
				pendingLabel, streak = want.Label, 1
			}
			if streak >= k {
				pendingLabel, streak = "", 0
			} else {
				run = cur
			}
		}
		if res.Completed > 0 && run.Label != cur.Label {
			res.Switches++
		}
		cur, haveCur = run, true
		res.Completed++
		accSum += run.Accuracy
		costSum += run.Cost
		if run.Label == full.Label {
			fullCount++
		}
	}
	if res.Completed > 0 {
		res.MeanAccuracy = accSum / float64(res.Completed)
		res.MeanCost = costSum / float64(res.Completed)
		res.FullPathShare = float64(fullCount) / float64(res.Completed)
	}
	return res
}

// simulateStaticRef is the pre-fusion package-level SimulateStatic.
func simulateStaticRef(p Path, tr Trace) SimResult {
	res := SimResult{Frames: len(tr)}
	for _, budget := range tr {
		if p.Cost > budget {
			res.Skipped++
			continue
		}
		res.Completed++
	}
	if res.Completed > 0 {
		res.MeanAccuracy = p.Accuracy
		res.MeanCost = p.Cost
		if res.Skipped == 0 {
			res.FullPathShare = 1
		}
	}
	return res
}

// catalogSimulateStaticRef is the pre-fusion Catalog.SimulateStatic.
func catalogSimulateStaticRef(c *Catalog, p Path, tr Trace) SimResult {
	res := simulateStaticRef(p, tr)
	if res.Completed > 0 && p.Label == c.Full().Label {
		res.FullPathShare = 1
	} else {
		res.FullPathShare = 0
	}
	return res
}

// replayRef is the pre-fusion multi-policy replay: the feasibility check
// on Trace.Max, then one loop per policy.
func replayRef(c *Catalog, tr Trace, pols []Policy) ([]SimResult, error) {
	if _, err := c.SelectStrict(tr.Max()); err != nil {
		return nil, err
	}
	out := make([]SimResult, len(pols))
	for i, p := range pols {
		switch {
		case p.Static:
			out[i] = catalogSimulateStaticRef(c, p.Pin, tr)
		default:
			out[i] = simulateHysteresisRef(c, tr, p.Hysteresis)
		}
	}
	return out, nil
}

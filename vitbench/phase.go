package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"
)

// A virtual machine shares its host with other guests. The hypervisor's
// steal time — CPU time it gave them while this guest's vCPUs were ready
// to run, /proc/stat — ranged from under 1% to a third of the machine's
// CPU over single 12-second phases on a shared 2-vCPU virtual machine, in
// episodes lasting from seconds to minutes, and a stolen stretch's
// latencies and CPU times measure those guests, not the daemon. So load
// is offered in stretches, steal is read around each, and a stretch that
// lost more than quietShare of the machine's CPU is left out of the
// metrics when at least half the stretches ran quiet. Stretches are
// chosen by steal alone, never by their latencies.

// quietShare is the largest share of the machine's CPU time the host may
// steal during a stretch for it to count as quiet.
const quietShare = 0.05

// stretch is one part of a measured phase.
type stretch struct {
	reqs    []request
	samples []sample
	steal   time.Duration // host CPU time given to other guests
	cpu     time.Duration // daemon CPU time
	wall    time.Duration
}

func (s stretch) quiet() bool {
	return float64(s.steal) <= quietShare*float64(s.wall)*float64(runtime.NumCPU())
}

// offer sends reqs at rate as one stretch.
func offer(gen *generator, d *daemon, reqs []request, rate float64) (stretch, error) {
	cpu0, err := d.cpu()
	if err != nil {
		return stretch{}, err
	}
	steal0, t0 := hostSteal(), time.Now()
	s := gen.run(reqs, rate, keepBody)
	p := stretch{reqs: reqs, samples: s, steal: hostSteal() - steal0, wall: time.Since(t0)}
	cpu1, err := d.cpu()
	p.cpu = cpu1 - cpu0
	return p, err
}

// fixedPhase offers the workload's fixed rate for the run's --seconds in
// stretches of about a second each, so the phase's length does not
// depend on the host.
func (r *runner) fixedPhase(gen *generator, d *daemon) ([]stretch, error) {
	total := r.fixedCount()
	n := min(r.cfg.seconds, total)
	parts := make([]stretch, 0, n)
	start := time.Now()
	for k := 0; k < n; k++ {
		// Each stretch starts on the phase's schedule, so the gaps
		// between stretches keep the offered rate.
		first := total * k / n
		time.Sleep(time.Until(start.Add(time.Duration(float64(first) / r.w.rate * float64(time.Second)))))
		p, err := offer(gen, d, r.tr.take(total*(k+1)/n-first, r.w.rate), r.w.rate)
		if err != nil {
			return nil, err
		}
		parts = append(parts, p)
	}
	return parts, nil
}

// measured picks the stretches the fixed-rate metrics are taken over:
// the quiet ones when at least half of them ran quiet,
// otherwise the least stolen stretches holding half the phase's samples.
func measured(parts []stretch) []stretch {
	var quiet []stretch
	for _, p := range parts {
		if p.quiet() {
			quiet = append(quiet, p)
		}
	}
	if 2*len(quiet) >= len(parts) {
		return quiet
	}
	byQuiet := append([]stretch(nil), parts...)
	sort.SliceStable(byQuiet, func(i, j int) bool {
		return float64(byQuiet[i].steal)/float64(byQuiet[i].wall) < float64(byQuiet[j].steal)/float64(byQuiet[j].wall)
	})
	total, n := 0, 0
	for _, p := range parts {
		total += len(p.samples)
	}
	for i, p := range byQuiet {
		if n += len(p.samples); 2*n >= total {
			return byQuiet[:i+1]
		}
	}
	return byQuiet
}

// flatten joins the stretches' requests and samples in order.
func flatten(parts []stretch) ([]request, []sample) {
	var reqs []request
	var samples []sample
	for _, p := range parts {
		reqs = append(reqs, p.reqs...)
		samples = append(samples, p.samples...)
	}
	return reqs, samples
}

// describe renders each stretch's steal and its 50th and 90th latency
// percentiles for the run log, quiet ones marked.
func describe(parts []stretch) string {
	var b strings.Builder
	for _, p := range parts {
		mark := ""
		if p.quiet() {
			mark = "*"
		}
		lat := summarize(p.samples).latMS
		fmt.Fprintf(&b, " %v%s/%.3f/%.3fms", p.steal, mark, quantile(lat, 0.5), quantile(lat, 0.9))
	}
	return strings.TrimSpace(b.String())
}

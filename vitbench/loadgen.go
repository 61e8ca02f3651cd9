package main

import (
	"errors"
	"hash/crc32"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// sample is one request's outcome. Times are offsets from the phase
// start: due is when the schedule said to send it, free when a
// connection was first free to take it, sent when that connection began
// writing it, done when its last response byte arrived.
type sample struct {
	due, free, sent, done time.Duration
	status                int
	size                  int
	sum                   uint32 // CRC-32C of the body
	body                  []byte // kept only when the phase asks for bodies
	err                   error
}

func (s sample) ok() bool { return s.err == nil && s.status == 200 }

// latency runs from the due time, so time a request spent queued in the
// generator waiting for a free connection counts against it. What does
// not count is the generator's own timer overshoot: when a connection
// was already free at the due time, the time its thread overslept past
// that point is the generator's error, not the server's, and is left
// out. Every sample's send lag (sent − due) is reported separately.
func (s sample) latency() time.Duration {
	return s.done - s.due - (s.sent - max(s.due, s.free))
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var errAbandoned = errors.New("not sent: the phase ran past its drain limit")

// generator drives open-loop load over a fixed set of keep-alive
// connections, one OS thread each. Each worker claims the next request
// index, sleeps until that request's absolute due time start + i/rate,
// sends it and reads the response; while every connection is busy, due
// requests wait in the generator and their wait counts in their latency.
// No arrival is ever dropped.
type generator struct {
	port    int
	conns   []*httpConn
	timeout time.Duration // per read/write on a connection
	drain   time.Duration // how long past the schedule a phase may run
}

func newGenerator(port, conns int, timeout, drain time.Duration) (*generator, error) {
	g := &generator{port: port, timeout: timeout, drain: drain}
	for i := 0; i < conns; i++ {
		c, err := dialHTTP(port, timeout)
		if err != nil {
			g.close()
			return nil, err
		}
		g.conns = append(g.conns, c)
	}
	return g, nil
}

func (g *generator) close() {
	for _, c := range g.conns {
		if c != nil {
			c.close()
		}
	}
	g.conns = nil
}

// run sends reqs at rate and returns one sample per request. keep
// selects the requests whose bodies are copied into their samples.
func (g *generator) run(reqs []request, rate float64, keep func(request) bool) []sample {
	samples := make([]sample, len(reqs))
	var next atomic.Int64
	schedule := time.Duration(float64(len(reqs)) / rate * float64(time.Second))
	// A short lead lets every worker thread reach its first sleep.
	start := time.Now().Add(2 * time.Millisecond)
	var wg sync.WaitGroup
	for w := range g.conns {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			setTimerSlack()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				s := &samples[i]
				s.free = time.Since(start)
				s.due = time.Duration(float64(i) / rate * float64(time.Second))
				sleepUntil(start.Add(s.due))
				s.sent = time.Since(start)
				if s.sent > schedule+g.drain {
					s.err, s.done = errAbandoned, s.sent
					continue
				}
				g.send(w, reqs[i], s, start, keep)
			}
		}(w)
	}
	wg.Wait()
	return samples
}

// send performs one request on connection w, redialling a connection a
// previous failure closed.
func (g *generator) send(w int, req request, s *sample, start time.Time, keep func(request) bool) {
	c := g.conns[w]
	if c == nil {
		var err error
		if c, err = dialHTTP(g.port, g.timeout); err != nil {
			s.err, s.done = err, time.Since(start)
			return
		}
		g.conns[w] = c
	}
	status, body, err := c.do(req.raw)
	s.done = time.Since(start)
	if err != nil {
		s.err = err
		c.close()
		g.conns[w] = nil
		return
	}
	s.status, s.size, s.sum = status, len(body), crc(body)
	if keep != nil && keep(req) {
		s.body = append([]byte(nil), body...)
	}
}

// sleepUntil blocks the calling OS thread in nanosleep until t. The
// runtime's own timers wake at millisecond granularity when the process
// is idle, which alone would add ~0.5 ms to every sub-millisecond
// latency.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop recomputes the remainder
	}
}

// setTimerSlack lowers the calling thread's timer slack from the 50 µs
// Linux default to 1 µs, so nanosleep wakes on time.
func setTimerSlack() {
	const prSetTimerSlack = 29
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1000, 0) // best effort
}

// phaseStats summarizes a phase's samples.
type phaseStats struct {
	sent, failed int
	latMS        []float64 // sorted latencies of successful requests, ms
	lagMS        []float64 // sorted send lag (sent − due), ms
}

func summarize(samples []sample) phaseStats {
	st := phaseStats{sent: len(samples)}
	for _, s := range samples {
		if !s.ok() {
			st.failed++
			continue
		}
		st.latMS = append(st.latMS, ms(s.latency()))
		st.lagMS = append(st.lagMS, ms(s.sent-s.due))
	}
	sort.Float64s(st.latMS)
	sort.Float64s(st.lagMS)
	return st
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the nearest-rank q-quantile of sorted values (0 when
// empty).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(float64(len(sorted))*q+0.999999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

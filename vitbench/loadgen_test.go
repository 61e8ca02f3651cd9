package main

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"sync/atomic"
	"testing"
	"time"
)

func testServer(t *testing.T, h http.HandlerFunc) int {
	t.Helper()
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	u, err := url.Parse(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	port, err := strconv.Atoi(u.Port())
	if err != nil {
		t.Fatal(err)
	}
	return port
}

func TestGeneratorSendsOnSchedule(t *testing.T) {
	var served atomic.Int64
	port := testServer(t, func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		w.Write([]byte("ok"))
	})
	g, err := newGenerator(port, 2, 5*time.Second, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer g.close()
	reqs := make([]request, 100)
	for i := range reqs {
		reqs[i] = request{raw: renderGET("/x"), ref: -1}
	}
	const rate = 500.0
	samples := g.run(reqs, rate, nil)
	for i, s := range samples {
		if !s.ok() || s.sum != crc([]byte("ok")) {
			t.Fatalf("request %d: status %d err %v", i, s.status, s.err)
		}
		if want := time.Duration(float64(i) / rate * float64(time.Second)); s.due != want {
			t.Fatalf("request %d due at %v, want %v", i, s.due, want)
		}
		if s.sent < s.due {
			t.Fatalf("request %d sent at %v before its due time %v", i, s.sent, s.due)
		}
	}
	if served.Load() != int64(len(reqs)) {
		t.Fatalf("server saw %d requests, want %d", served.Load(), len(reqs))
	}
}

// Against a handler that stalls, every due request is still sent and
// counted, and each one's latency runs from its due time — the wait in
// the generator included. A ticker-driven generator drops the ticks that
// fall due during the stall and times requests from their actual send.
func TestStalledHandlerKeepsEveryArrival(t *testing.T) {
	const stall = 300 * time.Millisecond
	release := make(chan struct{})
	var served atomic.Int64
	port := testServer(t, func(w http.ResponseWriter, r *http.Request) {
		<-release
		served.Add(1)
		w.Write([]byte("ok"))
	})
	g, err := newGenerator(port, 2, 5*time.Second, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer g.close()
	reqs := make([]request, 40)
	for i := range reqs {
		reqs[i] = request{raw: renderGET("/x"), ref: -1}
	}
	const rate = 200.0 // 40 arrivals due over the first 200 ms
	start := time.Now()
	timer := time.AfterFunc(stall, func() { close(release) })
	defer timer.Stop()
	samples := g.run(reqs, rate, nil)
	if served.Load() != int64(len(reqs)) {
		t.Fatalf("server saw %d of %d due requests", served.Load(), len(reqs))
	}
	st := summarize(samples)
	if st.failed != 0 || len(st.latMS) != len(reqs) {
		t.Fatalf("%d failed, %d latencies for %d requests", st.failed, len(st.latMS), len(reqs))
	}
	queued := 0
	for i, s := range samples {
		// A request due while both connections were stalled waited in
		// the generator; all of that wait is latency.
		if s.free > s.due {
			queued++
			if d := s.done - s.due - s.latency(); d > 100*time.Microsecond {
				t.Fatalf("queued request %d: latency %v, want done − due = %v", i, s.latency(), s.done-s.due)
			}
		}
		// Nothing completes before the stall ends, so a request waited at
		// least from its due time to the end of the stall (less the
		// generator's lead) — from its send when its connection was idle
		// at its due time, since the generator's oversleep is not latency.
		from := s.due
		if s.free <= s.due {
			from = s.sent
		}
		if min := stall - from - 5*time.Millisecond; s.latency() < min {
			t.Fatalf("request %d due at %v, sent at %v: latency %v, want at least %v", i, s.due, s.sent, s.latency(), min)
		}
	}
	if queued < len(reqs)-4 {
		t.Fatalf("only %d of %d requests queued behind the stall", queued, len(reqs))
	}
	// The requests due during the stall queued in the generator: their
	// send lag shows it.
	if lag := samples[len(samples)-1].sent - samples[len(samples)-1].due; lag < 50*time.Millisecond {
		t.Fatalf("last request's send lag %v: the stall should have held it in the generator", lag)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("phase took %v", time.Since(start))
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.1, 1}, {1, 10}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of nothing is not 0")
	}
	if median([]float64{3, 1, 2, 4}) != 2.5 {
		t.Error("median of an even count is not the mean of the middle two")
	}
}

// The generator's own oversleep is not the server's latency; waiting for
// a busy connection is.
func TestLatencyExcludesTimerOvershootOnly(t *testing.T) {
	ms := time.Millisecond
	idle := sample{due: 10 * ms, free: 5 * ms, sent: 12 * ms, done: 13 * ms}
	if got := idle.latency(); got != ms {
		t.Errorf("idle connection, 2 ms oversleep: latency %v, want 1ms", got)
	}
	busy := sample{due: 10 * ms, free: 15 * ms, sent: 15 * ms, done: 16 * ms}
	if got := busy.latency(); got != 6*ms {
		t.Errorf("connection busy until 15 ms: latency %v, want 6ms", got)
	}
}

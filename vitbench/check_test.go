package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"vitdyn/internal/serve"
)

// fakeDaemonEnv makes the test binary act as a vitdynd stand-in: an
// in-process serve.Server that prints the daemon's listening and
// shut-down lines. With the value "corrupt" it alters one digit of every
// catalog response after the first 100 requests, leaving the JSON valid.
const fakeDaemonEnv = "VITBENCH_FAKE_DAEMON"

func TestMain(m *testing.M) {
	if mode := os.Getenv(fakeDaemonEnv); mode != "" {
		os.Exit(fakeDaemon(mode == "corrupt"))
	}
	os.Exit(m.Run())
}

func fakeDaemon(corrupt bool) int {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	h := serve.NewServer(serve.Options{}).Handler()
	if corrupt {
		h = corrupting(h)
	}
	srv := &http.Server{Handler: h}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM)
	fmt.Printf("vitdynd: listening on %s\n", ln.Addr())
	go srv.Serve(ln)
	<-sig
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	srv.Shutdown(ctx)
	fmt.Println("vitdynd: shut down; cost store served 0 hits / 0 misses (0% hit rate), 0 evictions")
	return 0
}

// corrupting serves every catalog response after the first 100 requests
// with the first digit of its first cost changed.
func corrupting(h http.Handler) http.Handler {
	var n atomic.Int64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) <= 100 || r.URL.Path != "/v1/catalog" {
			h.ServeHTTP(w, r)
			return
		}
		rec := &recorder{h: http.Header{}}
		h.ServeHTTP(rec, r)
		body := rec.body.Bytes()
		if i := bytes.Index(body, []byte(`"cost":`)); i >= 0 {
			d := &body[i+len(`"cost":`)]
			if *d >= '1' && *d <= '8' {
				*d++
			}
		}
		for k, v := range rec.h {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.code)
		w.Write(body)
	})
}

func runAgainstFake(t *testing.T, mode string) (*result, string, error) {
	t.Helper()
	t.Setenv(fakeDaemonEnv, mode)
	var out bytes.Buffer
	res, err := run(context.Background(), config{
		workload: "warm", seed: 1, seconds: 1, daemon: os.Args[0], workdir: t.TempDir(),
	}, &out)
	return res, out.String(), err
}

// The command's correctness gate fails the run on a deliberately wrong
// response — and passes the same run when nothing is altered.
func TestGateFailsOnWrongResponse(t *testing.T) {
	if testing.Short() {
		t.Skip("boots daemons")
	}
	res, out, err := runAgainstFake(t, "faithful")
	if err != nil || res == nil || !res.Correct || res.Failed != 0 {
		t.Fatalf("faithful daemon: result %+v, error %v\n%s", res, err, out)
	}
	res, out, err = runAgainstFake(t, "corrupt")
	if err == nil || res == nil || res.Correct {
		t.Fatalf("corrupting daemon passed the gate: result %+v, error %v\n%s", res, err, out)
	}
	if !strings.Contains(err.Error(), "differs from the set-up response") {
		t.Fatalf("gate failed for another reason: %v", err)
	}
}

func catalogFor(t *testing.T, spec serve.CatalogRequest) ([]byte, serve.CatalogResponse) {
	t.Helper()
	resp, err := directCatalog(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return b, resp
}

func TestDirectBuildCatchesAlteredFrontier(t *testing.T) {
	spec := serve.CatalogRequest{Family: "swin", Variant: "Tiny", Step: 128, Backend: "gpu"}
	body, resp := catalogFor(t, spec)
	reqs := []request{catalogRequest(kindCold, spec, -1)}
	g := &gate{}
	checkDirect(context.Background(), g, 1, reqs, []sample{{status: 200, body: body}})
	if !g.ok() {
		t.Fatalf("faithful frontier failed: %v", g.err())
	}
	resp.Paths[1].Cost = resp.Paths[1].Cost * (1 + 1e-15)
	altered, _ := json.Marshal(resp)
	g = &gate{}
	checkDirect(context.Background(), g, 1, reqs, []sample{{status: 200, body: altered}})
	if g.ok() {
		t.Fatal("a cost one ulp off passed the direct-build comparison")
	}
}

func TestReplayCheckRejectsDynamicBelowStatic(t *testing.T) {
	spec := serve.CatalogRequest{Family: "segformer-retrained", Backend: "gpu"}
	srv := serve.NewServer(serve.Options{})
	rr := &serve.ReplayRequest{Catalog: spec, Trace: randomTrace(newTraffic(workloads["replay"], 3).rng, 500)}
	req := replayRequest(kindTrace, *rr, -1)
	w := &recorder{h: http.Header{}}
	srv.Handler().ServeHTTP(w, newHTTPRequest(req))
	_, cat := catalogFor(t, spec)
	if err := checkReplayBody(w.body.Bytes(), rr, len(cat.Paths)); err != nil {
		t.Fatalf("faithful replay failed: %v", err)
	}
	var resp serve.ReplayResponse
	if err := json.Unmarshal(w.body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	resp.Results[0].Policies[0].EffectiveAccuracy = resp.Results[0].Policies[2].EffectiveAccuracy - 1e-3
	altered, _ := json.Marshal(resp)
	if err := checkReplayBody(altered, rr, len(cat.Paths)); err == nil {
		t.Fatal("dynamic below static-cheapest passed the replay check")
	}
	if err := checkReplayBody(w.body.Bytes(), rr, len(cat.Paths)+1); err == nil {
		t.Fatal("a replay over the wrong frontier size passed the replay check")
	}
}

func TestCheckSamplesRejectsFailures(t *testing.T) {
	reqs := []request{{kind: kindCatalog, ref: 0, target: "/v1/catalog"}, {kind: kindCatalog, ref: 0, target: "/v1/catalog"}}
	refs := &references{bodies: [][]byte{[]byte("x")}, sums: []uint32{crc([]byte("x"))}}
	g := &gate{}
	refs.checkSamples(g, reqs, []sample{{status: 200, size: 1, sum: crc([]byte("x"))}, {status: 503}})
	if g.failures != 1 {
		t.Fatalf("%d failures, want 1 (the 503)", g.failures)
	}
}

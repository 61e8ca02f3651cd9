// Command vitdynd is the vitdyn serving daemon: an HTTP front end over
// the catalog builders and profilers, with one process-wide cost store
// shared by every request so repeated or overlapping sweeps (the same
// model family at a different channel step, a re-run figure) are
// near-free.
//
// Endpoints:
//
//	GET /healthz        liveness + uptime
//	GET /statsz         cost-store + streaming-pipeline counters + server stats
//	GET /v1/backends    every servable cost backend spec
//	GET /v1/catalog     family, dataset, variant, step, backend, workers →
//	                    Pareto path catalog (JSON), built streaming
//	POST /v1/batch      many catalog specs in one request, fanned out
//	                    through the shared cost store
//	POST /v1/replay     catalog spec + declarative trace spec(s) →
//	                    server-side RDD replay (SimResult per policy)
//	GET /v1/profile     model, bytes, layers → analytical FLOPs profile
//	GET /v1/store/export   full cost store as one checksummed snapshot stream
//	POST /v1/store/import  merge a snapshot stream into the cost store
//	GET /v1/store/delta    cost records inserted since ?since=gen:seq (gossip pull)
//	GET /metrics        Prometheus text exposition of every server metric
//	GET /versionz       module version, Go version, VCS revision
//
// Usage:
//
//	vitdynd [-addr 127.0.0.1:8080] [-cache N] [-catalog-cache N]
//	        [-workers N] [-max-sweeps N] [-timeout 60s] [-stream-stats]
//	        [-store-path DIR] [-log-format text|json] [-quiet]
//	        [-debug-addr ADDR] [-peers host:port,...]
//	        [-gossip-interval 5s] [-gossip-timeout 2s]
//	        [-window 1m] [-requestz 256]
//
// -peers turns the daemon into a fleet member: it pulls cost-store
// deltas from each listed peer on a jittered anti-entropy schedule
// (exponential backoff per failing peer, quarantine after repeated
// failures), so a (backend, signature) shape priced on any daemon
// serves on every daemon with zero backend evaluations. Per-peer state
// lands in the /statsz gossip section and on /metrics.
//
// Every request is logged to stderr as one access-log line (-log-format
// json for machine-readable logs, -quiet to disable) and tagged with an
// X-Request-ID response header. -debug-addr starts a second listener
// serving net/http/pprof and /debug/requestz (the always-on recorder of
// recent and slowest-per-route request traces, -requestz entries deep) —
// kept off the main port so introspection is never exposed alongside
// the API by accident.
//
// -window sets the short rolling-metrics window (a 5x long window comes
// with it): /statsz and /metrics report per-route p50/p99/p999 and
// req/s over the last -window and 5x-window alongside the cumulative
// series. With -peers, GET /fleetz on any daemon scrapes every peer's
// /metrics concurrently and merges them into fleet-wide per-route
// percentiles plus a per-peer health row (up/degraded/down, gossip
// view, store sizes).
//
// -store-path makes the cost store durable: the daemon warm-boots from
// the directory's snapshot+WAL (a previously priced catalog spec serves
// with zero backend evaluations), write-through persists every computed
// cost, and flushes on graceful shutdown — SIGINT and SIGTERM both drain
// in-flight requests and compact the store before exit. GET
// /v1/store/export and POST /v1/store/import stream the same snapshot
// format over HTTP, so one daemon can seed another.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"vitdyn/internal/costdb"
	"vitdyn/internal/engine"
	"vitdyn/internal/obs"
	"vitdyn/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// syncWriter serializes writes to an io.Writer. stderr is written from
// several goroutines at once — the access logger (HTTP handlers), the
// gossip loops, and shutdown paths — each holding at most its own lock,
// so the shared writer itself must be safe for concurrent use.
// *os.File is; the buffers tests pass in are not.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// run executes the daemon with the given arguments and streams until ctx
// is cancelled; it returns the process exit code (factored out of main
// so tests can drive the whole binary in-process on a random port).
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	stderr = &syncWriter{w: stderr}
	fs := flag.NewFlagSet("vitdynd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
	cache := fs.Int("cache", 0, "cost-store capacity in entries (0 = default)")
	workers := fs.Int("workers", 0, "per-request worker cap (0 = GOMAXPROCS)")
	maxSweeps := fs.Int("max-sweeps", 0, "server-wide concurrent sweep limit (0 = 2x GOMAXPROCS)")
	timeout := fs.Duration("timeout", 60*time.Second, "per-request timeout")
	streamStats := fs.Bool("stream-stats", false, "report the streaming catalog pipeline's generated/prefiltered/costed/admitted totals at shutdown (also live in /statsz)")
	storePath := fs.String("store-path", "", "durable cost-store directory (snapshot+WAL): warm-boot from it on start, write-through persist every computed cost, flush and compact on shutdown")
	flushEvery := fs.Duration("flush-interval", 30*time.Second, "with -store-path: how often to fsync (or age-compact) the WAL, bounding what a hard crash can lose; 0 disables periodic flushing")
	catalogCache := fs.Int("catalog-cache", 0, "catalog result-cache capacity in catalogs (0 = default): repeated identical catalog/replay/batch specs serve from a spec-keyed cache, invalidated when a backend's cost-model epoch changes")
	respCache := fs.Int("resp-cache", 0, "pre-encoded response cache capacity in responses (0 = default): repeat requests for an already-served spec get the finished JSON bytes back without re-encoding, invalidated on cost-model epoch changes")
	logFormat := fs.String("log-format", "text", "access-log format on stderr: text or json")
	quiet := fs.Bool("quiet", false, "disable per-request access logging")
	debugAddr := fs.String("debug-addr", "", "serve net/http/pprof on a second listener at this address (empty = disabled); kept off the API port")
	peers := fs.String("peers", "", "comma-separated peer daemon addresses (host:port) to gossip the cost store with: each peer is pulled for deltas on a jittered interval, so a shape priced anywhere in the fleet serves everywhere without backend re-evaluation")
	gossipInterval := fs.Duration("gossip-interval", serve.DefaultGossipInterval, "steady-state anti-entropy pull cadence per peer (jittered; failures back off exponentially, repeated failures quarantine the peer)")
	gossipTimeout := fs.Duration("gossip-timeout", serve.DefaultGossipTimeout, "per-peer timeout for one gossip exchange")
	window := fs.Duration("window", 0, "short rolling-metrics window for windowed per-route percentiles and rates on /statsz and /metrics; a 5x long window is derived from it (0 = 1m)")
	requestzCap := fs.Int("requestz", 0, "capacity of the always-on recent-request trace ring served at /debug/requestz on the -debug-addr listener (0 = 256)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	format, err := obs.ParseLogFormat(*logFormat)
	if err != nil {
		fmt.Fprintf(stderr, "vitdynd: %v\n", err)
		return 2
	}
	var accessLog *obs.AccessLogger
	if !*quiet {
		accessLog = obs.NewAccessLogger(stderr, format)
	}

	store := serve.NewStore(*cache)
	var db *costdb.Persistent
	if *storePath != "" {
		var err error
		// StaleEpoch lets compaction retire durable costs whose backend
		// has moved to a new cost-model epoch.
		if db, err = costdb.Open(*storePath, store, costdb.Options{StaleEpoch: engine.StaleEpoch}); err != nil {
			fmt.Fprintf(stderr, "vitdynd: %v\n", err)
			return 1
		}
		if *flushEvery > 0 {
			// Bound what a hard crash (power loss, SIGKILL) can lose:
			// appends are buffered by the OS until fsynced, and the
			// age-based compaction trigger only fires from Flush. The
			// graceful-shutdown path compacts in Close regardless.
			go func() {
				tick := time.NewTicker(*flushEvery)
				defer tick.Stop()
				for {
					select {
					case <-ctx.Done():
						return
					case <-tick.C:
						if err := db.Flush(); err != nil && ctx.Err() == nil {
							fmt.Fprintf(stderr, "vitdynd: flushing cost store: %v\n", err)
						}
					}
				}
			}()
		}
	}
	srv := serve.NewServer(serve.Options{
		Store:                store,
		DB:                   db,
		Workers:              *workers,
		MaxConcurrentSweeps:  *maxSweeps,
		RequestTimeout:       *timeout,
		CatalogCacheCapacity: *catalogCache,
		RespCacheCapacity:    *respCache,
		AccessLog:            accessLog,
		Window:               *window,
		RequestzCapacity:     *requestzCap,
	})
	if *debugAddr != "" {
		stopDebug, err := serveDebug(ctx, *debugAddr, srv.Requestz(), stdout)
		if err != nil {
			fmt.Fprintf(stderr, "vitdynd: debug listener: %v\n", err)
			return 1
		}
		defer stopDebug()
	}
	var gossiper *serve.Gossiper
	if *peers != "" {
		var peerList []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, p)
			}
		}
		if len(peerList) == 0 {
			fmt.Fprintf(stderr, "vitdynd: -peers given but no addresses parsed from %q\n", *peers)
			return 2
		}
		gossiper = serve.NewGossiper(srv, serve.GossipOptions{
			Peers:    peerList,
			Interval: *gossipInterval,
			Timeout:  *gossipTimeout,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(stderr, "vitdynd: "+format+"\n", args...)
			},
		})
		// The loops get their own cancel so every return path — including
		// a listen failure that never cancels ctx — stops them before the
		// deferred Wait; deferred LIFO runs gcancel first, then Wait, so
		// no sync is mid-merge while the store is closed below.
		gctx, gcancel := context.WithCancel(ctx)
		gossiper.Start(gctx)
		defer gossiper.Wait()
		defer gcancel()
	}
	err = srv.ListenAndServe(ctx, *addr, func(a net.Addr) {
		fmt.Fprintf(stdout, "vitdynd: listening on %s\n", a)
		fmt.Fprintf(stdout, "vitdynd: %s\n", obs.Version())
		if db != nil {
			fmt.Fprintf(stdout, "vitdynd: cost store: warm-booted %d entries from %s\n",
				db.Stats().LoadedEntries, *storePath)
		}
	})
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		if db != nil {
			db.Close()
		}
		fmt.Fprintf(stderr, "vitdynd: %v\n", err)
		return 1
	}
	st := store.Stats()
	fmt.Fprintf(stdout, "vitdynd: shut down; cost store served %d hits / %d misses (%.0f%% hit rate), %d evictions\n",
		st.Hits, st.Misses, 100*st.HitRate(), st.Evictions)
	if gossiper != nil {
		gs := gossiper.Stats()
		fmt.Fprintf(stdout, "vitdynd: gossip: %d peers, %d syncs, %d failures, %d records received, %d stale dropped, %d quarantined\n",
			len(gs.Peers), gs.Syncs, gs.Failures, gs.RecordsReceived, gs.StaleDropped, gs.Quarantined)
	}
	cc := srv.CatalogCache().Stats()
	fmt.Fprintf(stdout, "vitdynd: catalog cache: %d hits / %d misses (%.0f%% hit rate), %d evictions, %d invalidations\n",
		cc.Hits, cc.Misses, 100*cc.HitRate(), cc.Evictions, cc.Invalidations)
	if db != nil {
		dst := db.Stats()
		if err := db.Close(); err != nil {
			fmt.Fprintf(stderr, "vitdynd: flushing cost store: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "vitdynd: costdb %s: %d loaded, %d entries, %d appends, %d disk hits, %d compactions\n",
			*storePath, dst.LoadedEntries, dst.Entries, dst.Appends, dst.DiskHits, dst.Compactions)
	}
	if *streamStats {
		ss := srv.StreamStats()
		fmt.Fprintf(stdout, "vitdynd: stream: %d generated, %d prefiltered (%.0f%% saved before costing), %d costed, %d admitted\n",
			ss.Generated, ss.Prefiltered, 100*ss.PrefilterRate(), ss.Costed, ss.Admitted)
	}
	return 0
}

// serveDebug starts the debug listener on its own address with an
// explicit mux — registering only the pprof handlers and the requestz
// recorder, never the API — and returns a func that waits for its
// shutdown. The listener dies with ctx, so graceful daemon shutdown
// tears it down too.
func serveDebug(ctx context.Context, addr string, requestz http.Handler, stdout io.Writer) (func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/requestz", requestz)
	srv := serve.NewHTTPServer(mux)
	fmt.Fprintf(stdout, "vitdynd: pprof on http://%s/debug/pprof/\n", ln.Addr())
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(stdout, "vitdynd: debug listener: %v\n", err)
		}
	}()
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(shutdownCtx)
	}()
	return func() {
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(shutdownCtx)
		<-done
	}, nil
}

// Command ossimd is the long-running simulation service: a stdlib-only
// HTTP daemon that runs oscachesim simulations as jobs on a bounded
// worker pool, serves results from a content-addressed cache with
// singleflight deduplication, streams job progress as NDJSON, and
// drains gracefully on SIGTERM.
//
// Usage:
//
//	ossimd -addr :8080 -workers 4 -queue 64 -job-timeout 5m
//	ossimd -debug-addr 127.0.0.1:6060   # opt-in pprof on a separate listener
//	ossimd -store-dir /var/lib/ossimd   # durable result store (survives restart)
//
// Cluster mode (see README.md, "Cluster"):
//
//	ossimd -addr :8080 -coordinator -store-dir /tmp/coord     # coordinator
//	ossimd -addr :8081 -join http://coord:8080 \
//	       -advertise http://worker1:8081 -node-id w1 \
//	       -store-dir /tmp/w1                                  # worker
//
// The coordinator routes each unique configuration to the worker
// owning its canonical key on a consistent-hash ring, so the cluster
// computes every unique configuration exactly once; workers heartbeat,
// and a lost worker's keys re-route to the survivors.
//
// API (see README.md for the full reference):
//
//	POST /v1/runs              submit one simulation
//	POST /v1/campaigns         submit a parameter grid (geometry, coherence,
//	                           sharing degree x systems)
//	GET  /v1/runs/{id}         job status and result (with stage breakdown)
//	GET  /v1/runs/{id}/stream  NDJSON progress stream
//	GET  /healthz              liveness
//	GET  /v1/metrics           JSON counters; Prometheus text exposition
//	                           under ?format=prometheus or Accept: text/plain
//
// The pre-v1 paths (/v1/run, /v1/sweep, /v1/jobs/{id}[/stream],
// /metrics) have been removed; they answer 404 with a JSON error naming
// the v1 successor. The retired /v1/sweeps routes answer 404 the same
// way, naming their /v1/campaigns counterparts.
//
// Logs are structured (log/slog): request records with method, path,
// status and latency, and job lifecycle records keyed by job id.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"oscachesim/internal/cluster"
	"oscachesim/internal/server"
	"oscachesim/internal/store"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		debugAddr  = flag.String("debug-addr", "", "optional pprof listener address (e.g. 127.0.0.1:6060); empty disables")
		workers    = flag.Int("workers", 4, "simulation worker pool size")
		queue      = flag.Int("queue", 64, "job queue capacity (full queue answers 429)")
		jobTimeout = flag.Duration("job-timeout", 5*time.Minute, "per-job deadline (requests may tighten, never extend)")
		drainWait  = flag.Duration("drain-timeout", 2*time.Minute, "maximum wait for in-flight jobs at shutdown")
		logFormat  = flag.String("log-format", "text", "log encoding: text or json")
		logLevel   = flag.String("log-level", "info", "minimum log level: debug, info, warn or error")

		storeDir    = flag.String("store-dir", "", "durable result-store directory; empty keeps results in memory only")
		coordinator = flag.Bool("coordinator", false, "run as cluster coordinator (accept workers, route compute)")
		join        = flag.String("join", "", "coordinator base URL to join as a worker (e.g. http://coord:8080)")
		nodeID      = flag.String("node-id", "", "stable cluster node id (default: the hostname)")
		advertise   = flag.String("advertise", "", "this worker's base URL as reachable from the coordinator (required with -join)")
	)
	flag.Parse()

	logger, err := newLogger(*logFormat, *logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ossimd: %v\n", err)
		os.Exit(2)
	}
	if *coordinator && *join != "" {
		fmt.Fprintln(os.Stderr, "ossimd: -coordinator and -join are mutually exclusive")
		os.Exit(2)
	}
	if *join != "" && *advertise == "" {
		fmt.Fprintln(os.Stderr, "ossimd: -join requires -advertise (the URL the coordinator forwards compute to)")
		os.Exit(2)
	}
	if *nodeID == "" {
		if host, err := os.Hostname(); err == nil {
			*nodeID = host
		} else {
			*nodeID = "ossimd"
		}
	}

	st, err := store.Open(*storeDir, logger)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ossimd: opening result store: %v\n", err)
		os.Exit(1)
	}
	opts := server.Options{
		Workers:    *workers,
		QueueDepth: *queue,
		JobTimeout: *jobTimeout,
		Logger:     logger,
		Store:      st,
	}
	if *coordinator || *join != "" {
		opts.Cluster = &server.ClusterOptions{
			NodeID:      *nodeID,
			Coordinator: *coordinator,
		}
	}
	srv := server.New(opts)
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// The pprof surface is opt-in and lives on its own listener, so
	// profiling access can be firewalled separately from the API (bind
	// it to loopback) and profile downloads never contend with API
	// request handling on the main listener's accept queue.
	if *debugAddr != "" {
		debugMux := http.NewServeMux()
		debugMux.HandleFunc("/debug/pprof/", pprof.Index)
		debugMux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		debugMux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		debugMux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		debugMux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			logger.Info("pprof listening", "addr", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, debugMux); err != nil {
				logger.Error("pprof listener failed", "error", err)
			}
		}()
	}

	// SIGTERM / Ctrl-C starts a graceful drain: stop accepting,
	// cancel queued jobs, finish running simulations, exit 0.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// A worker keeps a register/heartbeat loop against its coordinator
	// for as long as the process lives; the coordinator learns the
	// node's queue depth, store size and execution count from it.
	if *join != "" {
		agent := &cluster.Agent{
			Coordinator: *join,
			NodeID:      *nodeID,
			Advertise:   *advertise,
			Stats:       srv.ClusterStats,
			Logger:      logger,
		}
		go agent.Run(ctx)
	}

	errCh := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", *addr, "workers", *workers,
			"queue", *queue, "job_timeout", jobTimeout.String())
		errCh <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		// Listener failed before any signal.
		logger.Error("listener failed", "error", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop()
	logger.Info("shutdown signal received, draining")

	shutCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		logger.Warn("http shutdown", "error", err)
	}
	if err := srv.Drain(shutCtx); err != nil {
		logger.Error("drain incomplete", "error", err)
		os.Exit(1)
	}
	if err := st.Close(); err != nil {
		logger.Warn("closing result store", "error", err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("serve", "error", err)
		os.Exit(1)
	}
	logger.Info("drained, exiting")
}

// newLogger builds the daemon's slog.Logger from the CLI flags.
func newLogger(format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: %v", level, err)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	}
	return nil, fmt.Errorf("bad -log-format %q (want text or json)", format)
}

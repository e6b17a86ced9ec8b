// Command faultserverd is the fault-campaign job server: a long-running
// HTTP daemon that schedules RTL fault-injection campaigns on a bounded
// worker pool, coalesces duplicate submissions, serves repeated requests
// from a content-addressed result cache, and streams live campaign
// progress (experiment counts, progressive Pf with Wilson confidence
// intervals) as NDJSON.
//
// Usage:
//
//	faultserverd -addr :8080 -jobs 2 -campaign-workers 0
//
// With -data-dir the daemon is durable and crash-restartable: completed
// campaign outcomes are committed to an on-disk content-addressed
// result store and every job/shard lifecycle event to a checksummed
// write-ahead journal under that directory. A restarted daemon —
// SIGKILL included — replays the journal, serves finished campaigns
// from the store without re-executing them, and resumes in-flight
// campaigns from their last durably completed shard; the recovered
// outcome is byte-identical to an undisturbed run. The port is bound only
// once recovery has finished, so /readyz answers 200 whenever it answers.
//
// With -shards N each campaign is split into N deterministic
// experiment-range shards, drained by in-process shard workers and by
// any remote workers pulling leases over the HTTP shard surface.
// Sharding is scheduling, not content: results stay byte-identical to
// unsharded runs. That holds for transient campaigns too — requests may
// list the transient models "seu" and "set" (with "pulse_cycles" for
// the glitch width) next to the permanent ones; injection instants are
// sampled from the request seed keyed by absolute experiment index, so
// every worker schedules the identical instants.
//
// Observability: GET /metrics serves a Prometheus text exposition
// covering the fault engine, job manager, shard pool, durable store and
// HTTP transport. Daemon logs are structured (-log-format text|json,
// -log-level debug|info|warn|error) with per-job and per-shard
// attributes. -pprof-addr starts a net/http/pprof listener on a
// separate address. None of this touches campaign content: metrics and
// logs are observation only, and content addresses are byte-identical
// with or without them.
//
// Worker mode joins another daemon's campaigns instead of serving:
//
//	faultserverd -worker -coordinator http://host:8080 -worker-id w1
//
// The worker polls the coordinator for shards, executes them on the
// local pooled engine (each campaign's golden run is simulated once per
// worker process, then shared across its shards), streams partial
// tallies back, and survives coordinator restarts. Scale out = start
// more workers; no other configuration. With -metrics-addr a worker
// serves its own small /metrics listener (shards executed, report
// retries, drops, current lease backoff) plus /healthz with the same
// counters as JSON.
//
// The listening address is printed to stdout once the socket is bound
// (useful with -addr 127.0.0.1:0 in scripts). See internal/server for the
// API surface and README "Scaling out" for examples.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/server"
)

// newLogger builds the process logger from the -log-format/-log-level
// flags. Unknown values fall back to text/info rather than failing the
// boot: a daemon with slightly wrong logging flags should still serve.
func newLogger(format, level string) *slog.Logger {
	var lv slog.Level
	switch level {
	case "debug":
		lv = slog.LevelDebug
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		lv = slog.LevelInfo
	}
	opts := &slog.HandlerOptions{Level: lv}
	var h slog.Handler
	if format == "json" {
		h = slog.NewJSONHandler(os.Stderr, opts)
	} else {
		h = slog.NewTextHandler(os.Stderr, opts)
	}
	return slog.New(h)
}

func main() {
	var (
		addr    = flag.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
		njobs   = flag.Int("jobs", 2, "campaigns executed concurrently")
		queue   = flag.Int("queue", 64, "max queued campaigns")
		workers = flag.Int("campaign-workers", 0, "experiment workers per campaign, or per shard in worker mode (0 = GOMAXPROCS)")
		shards  = flag.Int("shards", 1, "experiment-range shards per campaign (>1 enables the shard pool and the HTTP shard surface)")
		local   = flag.Int("shard-local-workers", 0, "in-process shard executors per campaign (0 = campaign workers, -1 = serve shards to remote workers only)")
		ttl     = flag.Duration("shard-lease-ttl", 2*time.Minute, "reclaim a shard whose worker has been silent this long")
		dataDir = flag.String("data-dir", "", "directory for the durable result store and job journal (empty = in-memory only)")

		logFormat = flag.String("log-format", "text", "log output format: text or json")
		logLevel  = flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
		pprofAddr = flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty = disabled)")

		workerMode  = flag.Bool("worker", false, "run as a shard worker instead of a server")
		coordinator = flag.String("coordinator", "", "coordinator base URL (worker mode)")
		workerID    = flag.String("worker-id", "", "worker name reported to the coordinator (default host:pid)")
		backoffMax  = flag.Duration("worker-backoff-max", 5*time.Second, "cap on the worker's jittered lease backoff (worker mode)")
		metricsAddr = flag.String("metrics-addr", "", "worker mode: serve /metrics and /healthz on this address (empty = disabled)")
	)
	flag.Parse()
	logger := newLogger(*logFormat, *logLevel)

	if *pprofAddr != "" {
		go servePprof(*pprofAddr, logger)
	}

	if *workerMode {
		runWorker(logger, *coordinator, *workerID, *workers, *backoffMax, *metricsAddr)
		return
	}

	reg := obs.NewRegistry()
	mgr, recovery, err := jobs.OpenManager(jobs.ManagerOptions{
		Concurrency:       *njobs,
		QueueDepth:        *queue,
		CampaignWorkers:   *workers,
		Shards:            *shards,
		ShardLocalWorkers: *local,
		ShardLeaseTTL:     *ttl,
		DataDir:           *dataDir,
		Obs:               reg,
		Log:               logger,
	})
	if err != nil {
		logger.Error("boot failed", "error", err)
		os.Exit(1)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("listen failed", "addr", *addr, "error", err)
		os.Exit(1)
	}
	// The stdout line is an interface: scripts (and this command's tests)
	// scrape the bound address from it, so it stays a bare printf no
	// matter the log format.
	fmt.Printf("faultserverd: listening on http://%s\n", ln.Addr())
	if *shards > 1 {
		logger.Info("sharding enabled", "shards", *shards, "local_executors", localDesc(*local))
	}
	if *dataDir != "" {
		logger.Info("durable mode",
			"data_dir", *dataDir,
			"stored_results", recovery.StoredResults,
			"resumed_jobs", recovery.ResumedJobs,
			"recovered_shards", recovery.RecoveredShards)
		if recovery.TornTail {
			logger.Warn("journal had a torn final record (crash mid-append); truncated and continuing")
		}
	}
	api := server.New(mgr, server.WithObs(reg), server.WithBootInfo(recovery, *dataDir))
	srv := &http.Server{
		Handler: api.Handler(),
		// No WriteTimeout: the NDJSON stream endpoint is legitimately
		// long-lived. Reads (headers and bodies — a campaign request is
		// tiny) and idle keep-alives are bounded so stalled clients
		// cannot pin connections.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	select {
	case sig := <-stop:
		logger.Info("shutting down", "signal", sig.String())
		// Shutdown ordering matters: close the manager first so in-flight
		// jobs cancel within one experiment granule and every watcher gets
		// its terminal snapshot; then drain the NDJSON streams so their
		// last lines are flushed over still-open connections; only then
		// close the listener. Draining before Shutdown is what spares
		// clients the connection resets a racing close used to cause.
		mgr.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.SetKeepAlivesEnabled(false)
		if err := api.Drain(ctx); err != nil {
			logger.Warn("stream drain incomplete", "error", err)
		}
		if err := srv.Shutdown(ctx); err != nil {
			logger.Warn("shutdown incomplete", "error", err)
		}
	case err := <-done:
		if err != nil && err != http.ErrServerClosed {
			logger.Error("serve failed", "error", err)
			os.Exit(1)
		}
	}
}

// servePprof runs the profiling listener. Registered explicitly on a
// private mux — importing net/http/pprof for its DefaultServeMux side
// effect would expose the profiler on the API listener too.
func servePprof(addr string, logger *slog.Logger) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	logger.Info("pprof listening", "addr", addr)
	if err := http.ListenAndServe(addr, mux); err != nil {
		logger.Error("pprof listener failed", "addr", addr, "error", err)
	}
}

func localDesc(local int) string {
	if local < 0 {
		return "none, remote workers only"
	}
	if local == 0 {
		return "campaign workers"
	}
	return fmt.Sprint(local)
}

// runWorker joins a coordinator's campaigns until SIGTERM/SIGINT.
func runWorker(logger *slog.Logger, coordinator, id string, workers int, backoffMax time.Duration, metricsAddr string) {
	if coordinator == "" {
		logger.Error("-worker requires -coordinator URL")
		os.Exit(1)
	}
	if id == "" {
		host, _ := os.Hostname()
		id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	logger = logger.With("worker", id)
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	reg := obs.NewRegistry()
	w := &server.Worker{
		Coordinator: coordinator,
		Name:        id,
		Workers:     workers,
		BackoffMax:  backoffMax,
		Log:         logger,
		Obs:         reg,
	}
	if metricsAddr != "" {
		// Register before the listener goes up so the first scrape already
		// sees the worker series (Run would re-register idempotently).
		w.RegisterMetrics(reg)
		go serveWorkerMetrics(metricsAddr, reg, w, logger)
	}
	logger.Info("pulling shards", "coordinator", coordinator)
	if err := w.Run(ctx); err != nil && err != context.Canceled {
		logger.Error("worker failed", "error", err)
		os.Exit(1)
	}
	logger.Info("worker stopped")
}

// serveWorkerMetrics is the worker-mode observability listener: /metrics
// in the text exposition format (engine counters included, since the
// worker's registry is threaded into its shard executions) and /healthz
// with the WorkerStats counters as JSON.
func serveWorkerMetrics(addr string, reg *obs.Registry, w *server.Worker, logger *slog.Logger) {
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", reg.Handler())
	mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "application/json")
		json.NewEncoder(rw).Encode(struct {
			Status string             `json:"status"`
			Stats  server.WorkerStats `json:"stats"`
		}{Status: "ok", Stats: w.Stats()})
	})
	logger.Info("worker metrics listening", "addr", addr)
	if err := http.ListenAndServe(addr, mux); err != nil {
		logger.Error("worker metrics listener failed", "addr", addr, "error", err)
	}
}

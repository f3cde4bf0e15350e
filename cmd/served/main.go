// Command served runs the anonymization service daemon: the table store and
// async job engine of internal/service behind the REST API of
// internal/httpapi.
//
//	served -addr :8080 -workers 8 -cache 64
//	served -addr :8080 -data-dir /var/lib/served -table-ttl 72h
//	served -addr :8080 -keys-file /etc/served/keys -quota-jobs 4
//	served -addr :8080 -pprof-addr 127.0.0.1:6060 -log-level debug
//
// With -keys-file the API is multi-tenant: each line of the file maps an
// API key to a tenant (`tenant key [tables=N] [jobs=N] [cache=N] [rate=R]
// [burst=N]`), every request must present its key (Authorization: Bearer,
// or X-API-Key), and each tenant sees only its own tables, jobs and event
// streams. The -quota-* flags set the default per-tenant quotas; the
// optional key-file fields override them per tenant, and rate=/burst=
// attach a token-bucket request limit to that key (refusals are 429 with
// Retry-After). SIGHUP reloads the keys file in place — keys, rate limits
// and quota overrides — without dropping in-flight requests; a file that
// fails to parse leaves the previous configuration in force. Without
// -keys-file the API is open and single-namespace, as before.
//
// The daemon applies admission control to job submissions: -max-pending
// bounds each tenant's queued-but-unstarted jobs and -queue the global
// backlog; submissions past either bound are shed with 429 Too Many
// Requests and a load-derived Retry-After rather than queued without bound.
// -retain-events truncates terminal jobs' event buffers to a bounded tail
// once their result is durable (reconnecting streams past the truncation
// replay from the result instead).
//
// Upload tables as two-header CSV, submit anonymize / attack / fred-sweep /
// assess jobs, poll, download results (see the repository README for curl
// examples). Sweeps execute on the streaming pipeline: follow a running
// job's per-level results live on GET /v1/jobs/{id}/events (Server-Sent
// Events; NDJSON with Accept: application/x-ndjson), reconnect with
// Last-Event-ID / ?after= to skip the replay, or poll its status for the
// partial level series. Cancellation interrupts a sweep between levels, not
// just between jobs. SIGINT/SIGTERM drain in-flight jobs before exit.
// fred-sweep specs may carry the adaptive planner fields (k_set, stride,
// budget_ms, adaptive); levels any earlier sweep of the same table already
// computed are warm-started from the cross-job level index (-level-index
// bounds how many tables it remembers).
//
// With -data-dir the storage plane is durable: tables persist as columnar
// snapshots, the job log as a write-ahead log with per-level sweep
// checkpoints. After a crash — kill -9 included — the next boot reloads
// every table, restores finished jobs (results included) and re-submits
// interrupted fred-sweeps holding every level they checkpointed, so they
// compute only the rest and finish byte-identical to an uninterrupted run.
// -table-ttl evicts tables unreferenced by live jobs after the given age.
// The WAL is segmented: -wal-rotate-bytes / -wal-rotate-age roll the
// active segment, -wal-compact periodically rewrites the whole log down to
// its live image online, and -blob-gc sweeps result blobs no live job,
// cached result or table still references (-blob-gc-dry-run reports what
// would be reclaimed without deleting).
//
// The daemon is fully observable: GET /metrics serves a Prometheus text
// exposition covering the HTTP layer, the job engine, the result cache and
// the WAL; GET /v1/jobs/{id}/trace returns a job's recorded spans; every
// log line is structured (log/slog) and carries request_id=, tenant= and
// job= attributes where they apply. -pprof-addr serves net/http/pprof on a
// separate (ideally loopback) listener, keeping the profiler off the public
// API port.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registers the /debug/pprof handlers on DefaultServeMux
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/httpapi"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/service/diskstore"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		workers   = flag.Int("workers", 0, "job worker pool size (0 = NumCPU)")
		sweepers  = flag.Int("sweep-workers", 0, "per-job sweep concurrency (0 = workers)")
		cache     = flag.Int("cache", 64, "LRU result cache entries (negative disables)")
		levelIdx  = flag.Int("level-index", 32, "cross-job level-index tables for sweep warm-starts (negative disables)")
		queue     = flag.Int("queue", 256, "pending job queue depth (global admission bound)")
		maxPend   = flag.Int("max-pending", 64, "per-tenant pending job bound (0 = unlimited)")
		retain    = flag.Int("retain", 512, "finished jobs kept in the job log (negative keeps all)")
		retainEvs = flag.Int("retain-events", 256, "per-job event tail kept after the result is durable (negative keeps all)")
		drain     = flag.Duration("drain", 30*time.Second, "graceful shutdown budget")
		dataDir   = flag.String("data-dir", "", "durable storage directory (empty = in-memory only)")
		tableTTL  = flag.Duration("table-ttl", 0, "evict tables unreferenced by live jobs after this age (0 disables)")
		walRotB   = flag.Int64("wal-rotate-bytes", 4<<20, "roll the WAL segment past this size (0 disables the size trigger)")
		walRotAge = flag.Duration("wal-rotate-age", 0, "roll the WAL segment past this age (0 disables the age trigger)")
		walComp   = flag.Duration("wal-compact", 0, "rewrite the WAL to its live image at this interval (0 disables)")
		blobGC    = flag.Duration("blob-gc", 0, "sweep unreferenced result blobs at this interval (0 disables)")
		blobGCDry = flag.Bool("blob-gc-dry-run", false, "report reclaimable blobs without deleting them")
		keysFile  = flag.String("keys-file", "", "API key file enabling multi-tenant auth (empty = open, single namespace)")
		qTables   = flag.Int("quota-tables", 0, "default per-tenant max resident tables (0 = unlimited)")
		qJobs     = flag.Int("quota-jobs", 0, "default per-tenant max concurrent jobs (0 = unlimited)")
		qCache    = flag.Int("quota-cache", 0, "default per-tenant result-cache share (0 = unlimited)")
		pprofAddr = flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty = disabled; bind loopback)")
		logLevel  = flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
	)
	flag.Parse()

	level, err := parseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	logger := obs.NewLogger(os.Stderr, level)
	fatalf := func(format string, args ...any) {
		logger.Error(fmt.Sprintf(format, args...))
		os.Exit(1)
	}

	// One registry and one tracer span every layer, so a single /metrics
	// scrape (and a single trace ring) covers HTTP, engine, cache and WAL.
	registry := obs.NewRegistry()
	tracer := obs.NewTracer(obs.DefaultTraceCapacity)

	serverOpts := []httpapi.Option{httpapi.WithMetrics(registry), httpapi.WithTracer(tracer)}
	quotas := &service.Quotas{
		Default: service.Quota{MaxTables: *qTables, MaxJobs: *qJobs, CacheShare: *qCache},
	}
	if *keysFile != "" {
		cfg, err := httpapi.LoadKeysFile(*keysFile)
		if err != nil {
			fatalf("load keys file: %v", err)
		}
		quotas.PerTenant = cfg.Quotas
		serverOpts = append(serverOpts, httpapi.WithAuth(cfg.Auth))
		logger.Info("multi-tenant auth enabled", "quota_overrides", len(cfg.Quotas))
	}

	opts := service.Options{
		Workers:             *workers,
		SweepWorkers:        *sweepers,
		QueueDepth:          *queue,
		MaxPendingPerTenant: *maxPend,
		MaxJobEvents:        *retainEvs,
		CacheSize:           *cache,
		LevelIndexSize:      *levelIdx,
		MaxFinishedJobs:     *retain,
		Quotas:              quotas,
		Metrics:             registry,
		Tracer:              tracer,
		Logger:              logger,
	}
	var store *service.Store
	var ds *diskstore.Store
	if *dataDir != "" {
		var err error
		ds, err = diskstore.Open(*dataDir,
			diskstore.WithMetrics(registry),
			diskstore.WithWALRotation(*walRotB, *walRotAge))
		if err != nil {
			fatalf("open data dir: %v", err)
		}
		store = service.NewStoreWith(ds)
		opts.JobLog = ds
	} else {
		store = service.NewStore()
	}
	if err := store.Open(); err != nil {
		fatalf("load tables: %v", err)
	}
	engine := service.NewEngine(store, opts)
	// Recover before Start and before serving: restored jobs reclaim their
	// IDs and interrupted sweeps enqueue holding their checkpoints. The
	// engine reports unready (503 on /v1/readyz) for this whole window.
	recovered, err := engine.Recover()
	if err != nil {
		fatalf("recover job log: %v", err)
	}
	if *dataDir != "" {
		resumed := 0
		for _, rj := range recovered {
			if rj.Resumed {
				resumed++
				if n := len(rj.Status.Levels); n > 0 {
					logger.Info("resuming interrupted job",
						"type", rj.Status.Type, "job", rj.Status.ID,
						"checkpointed_levels", n)
				} else {
					logger.Info("re-running interrupted job",
						"type", rj.Status.Type, "job", rj.Status.ID)
				}
			}
		}
		logger.Info("recovered durable state",
			"tables", len(store.ListAll()), "jobs", len(recovered),
			"resumed", resumed, "data_dir", *dataDir)
	}
	engine.Start()

	api := httpapi.New(store, engine, logger, serverOpts...)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *keysFile != "" {
		// SIGHUP reloads the keys file in place: new keys, rate limits and
		// quota overrides apply to the next request, in-flight requests
		// finish under the configuration they started with. A file that no
		// longer parses keeps the previous configuration — a reload must
		// never fail open.
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			for {
				select {
				case <-hup:
					cfg, err := httpapi.LoadKeysFile(*keysFile)
					if err != nil {
						logger.Error("keys reload failed, keeping previous keys", "error", err)
						continue
					}
					api.SetAuth(cfg.Auth)
					quotas.SetPerTenant(cfg.Quotas)
					logger.Info("reloaded keys file",
						"path", *keysFile, "quota_overrides", len(cfg.Quotas))
				case <-ctx.Done():
					signal.Stop(hup)
					return
				}
			}
		}()
	}

	if *walComp > 0 && ds != nil {
		go func() {
			tick := time.NewTicker(*walComp)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					if err := engine.CompactLog(); err != nil {
						logger.Error("wal compaction", "error", err)
					}
				case <-ctx.Done():
					return
				}
			}
		}()
	}

	if *blobGC > 0 && ds != nil {
		go func() {
			tick := time.NewTicker(*blobGC)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					rep, err := engine.GCBlobs(*blobGCDry)
					if err != nil {
						logger.Error("blob gc", "error", err)
						continue
					}
					if rep.Reclaimed > 0 || rep.DryRun && len(rep.Unreferenced) > 0 {
						logger.Info("blob gc swept",
							"scanned", rep.Scanned, "reclaimed", rep.Reclaimed,
							"bytes", rep.BytesReclaimed, "dry_run", rep.DryRun)
					}
				case <-ctx.Done():
					return
				}
			}
		}()
	}

	if *tableTTL > 0 {
		interval := *tableTTL / 4
		if interval < time.Second {
			interval = time.Second
		}
		if interval > time.Minute {
			interval = time.Minute
		}
		go func() {
			tick := time.NewTicker(interval)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					for _, info := range engine.EvictTables(*tableTTL) {
						logger.Info("evicted table",
							"tenant", info.Tenant, "id", info.ID, "name", info.Name, "ttl", *tableTTL)
					}
				case <-ctx.Done():
					return
				}
			}
		}()
	}

	if *pprofAddr != "" {
		// pprof rides DefaultServeMux on its own listener: profiles stay off
		// the API port, so exposure is a deployment decision (bind loopback),
		// not an API-surface one.
		go func() {
			pprofSrv := &http.Server{Addr: *pprofAddr, Handler: http.DefaultServeMux, ReadHeaderTimeout: 10 * time.Second}
			logger.Info("pprof listening", "addr", *pprofAddr)
			if err := pprofSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("pprof serve", "error", err)
			}
		}()
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           api,
		ReadHeaderTimeout: 10 * time.Second,
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Info("listening", "addr", *addr)

	select {
	case err := <-errc:
		fatalf("serve: %v", err)
	case <-ctx.Done():
	}

	logger.Info("shutting down", "budget", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		logger.Warn("http shutdown", "error", err)
	}
	if err := engine.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("engine shutdown", "error", err)
	}
	if ds != nil {
		if err := ds.Close(); err != nil {
			logger.Warn("close data dir", "error", err)
		}
	}
	// The final snapshot is the last line an operator sees: what this
	// process accomplished and where the durable log stands.
	stats := engine.Stats()
	logger.Info("bye", "jobs_finished", stats.JobsFinished, "wal_seq", stats.WALSeq)
}

// parseLevel maps the -log-level flag onto a slog level.
func parseLevel(s string) (slog.Level, error) {
	switch s {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("served: unknown -log-level %q (want debug, info, warn or error)", s)
}

// Command collectd runs the EnergyDx trace-collection server. Phones
// (or cmd/tracegen) upload JSON-lines or binary trace bundles over TCP;
// on shutdown (SIGINT/SIGTERM) the server dumps its stored corpus as one
// JSONL file per app.
//
// With -store each shard's corpus lives in a segmented binary log with
// group commit, which a restart serves and deduplicates against; JSONL
// store files found there are imported on start. Without -store the
// corpus lives in memory.
//
// The -faults flag turns the server into a chaos rig: received lines
// are corrupted, truncated, duplicated, delayed or their connections
// dropped behind a seeded RNG, which exercises client retry and the
// server's quarantine exactly as an unreliable network would.
//
// The -debug-addr flag exposes the observability surface: /metrics
// (Prometheus text, ?format=json for expvar JSON), /healthz, /readyz,
// /debug/vars and the net/http/pprof suite. /readyz flips to 503 the
// moment a shutdown signal arrives, so a load balancer drains the
// instance before the listener closes.
//
// The -serve-analysis flag turns the collector into an online
// diagnosis service: accepted bundles feed per-app incremental
// analyzers (Step-1 results cached by content key), re-analysis is
// debounced behind upload bursts, and the latest report per app is
// served under /analysis/ on the debug mux — versioned (strong ETag,
// If-None-Match/304, ?wait= long-poll), with a snapshot history ring,
// a live SSE update stream and read-only what-if re-analysis:
//
//	curl http://127.0.0.1:7601/analysis/apps
//	curl http://127.0.0.1:7601/analysis/report?app=k9mail
//	curl -N http://127.0.0.1:7601/analysis/events
//	curl 'http://127.0.0.1:7601/analysis/whatif?app=k9mail&fence=2'
//
// The same service backs the embedded operator dashboard at /ui/ —
// fleet overview with live SSE row updates, per-app power-vs-rank
// charts with manifestation windows and the amplitude fence, snapshot
// history and what-if knobs. All debug-mux traffic is instrumented
// with per-endpoint request counters and latency histograms.
//
// For fleet-scale ingest, -shards N partitions the corpus into N
// in-process shards by hash(appID): the one listener decodes each
// bundle and hands it to the shard that owns its app, which keeps that
// app's store partition and analyzers. In sharded mode the analysis
// surface is served through a fanout that delegates app-scoped
// endpoints to the owning shard.
//
// Usage:
//
//	collectd -addr 127.0.0.1:7600 -out ./corpora
//	collectd -store ./store -faults 'corrupt=0.1,drop=0.05,seed=7'
//	collectd -debug-addr 127.0.0.1:7601 -serve-analysis
//	collectd -shards 4 -store ./store
package main

import (
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"repro/internal/collect"
	"repro/internal/collect/seglog"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/ui"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "collectd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr         = flag.String("addr", "127.0.0.1:7600", "listen address")
		out          = flag.String("out", ".", "directory for per-app corpus dumps on shutdown")
		storeDir     = flag.String("store", "", "durable store directory (segmented binary log): bundles are persisted as they arrive and served and deduplicated against after a restart; JSONL store files found there are imported on start")
		shards       = flag.Int("shards", 1, "in-process ingest shards partitioned by hash(appID); each shard owns its apps' store partition and analyzers (with -store, shard i keeps its partition in <store>/shard-<i> when N > 1)")
		parallelism  = flag.Int("parallelism", 0, "worker count writing the shutdown dump's per-app files, after one read pass over each shard's store (0 = GOMAXPROCS, 1 = serial)")
		faultSpec    = flag.String("faults", "", "chaos fault injection on received lines, e.g. 'corrupt=0.1,truncate=0.05,duplicate=0.1,drop=0.05,delay=0.2,seed=7'")
		maxLineBytes = flag.Int("max-line-bytes", 0, "reject serialized bundles over this size (0 = default 16 MiB)")
		maxRecords   = flag.Int("max-records", 0, "reject bundles with more event records than this (0 = default)")
		debugAddr    = flag.String("debug-addr", "", "serve /metrics, /healthz, /readyz, /debug/vars and /debug/pprof on this address ('' = disabled)")
		serveAnal    = flag.Bool("serve-analysis", false, "incrementally re-analyze ingested bundles and serve the latest per-app report under /analysis/ on -debug-addr")
		analDebounce = flag.Duration("analysis-debounce", 500*time.Millisecond, "quiet period after the last upload before a dirty app is re-analyzed")
		analCache    = flag.Int("analysis-cache", 0, "per-app Step-1 result cache capacity in bundles (0 = default)")
		logLevel     = flag.String("log-level", "info", "log level: debug|info|warn|error")
		logFormat    = flag.String("log-format", "text", "log output format: text|json")
	)
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		return err
	}
	slog.SetDefault(logger)

	if *shards < 1 {
		return fmt.Errorf("-shards must be >= 1, got %d", *shards)
	}

	var injector *faults.Injector
	if *faultSpec != "" {
		fcfg, err := faults.ParseSpec(*faultSpec)
		if err != nil {
			return err
		}
		injector, err = faults.New(fcfg)
		if err != nil {
			return err
		}
		logger.Warn("CHAOS MODE: injecting faults on received lines", "spec", *faultSpec)
	}
	// baseOpts are the server-wide options, carried alike by every
	// shard's list; store and analysis hook are added per shard.
	baseOpts := func() []collect.ServerOption {
		o := []collect.ServerOption{collect.WithLimits(collect.Limits{
			MaxLineBytes: *maxLineBytes,
			MaxRecords:   *maxRecords,
		})}
		if injector != nil {
			o = append(o, collect.WithServerFaults(injector))
		}
		return o
	}

	// One serving layer per shard: each owns exactly its shard's apps, so
	// the analysis partition mirrors the ingest partition. The HTTP
	// surface is re-unified below (directly, or through serve.Fanout).
	var svcs []*serve.Service
	if *serveAnal {
		if *debugAddr == "" {
			return errors.New("-serve-analysis requires -debug-addr (reports are served on the debug mux)")
		}
		svcs = make([]*serve.Service, *shards)
		for i := range svcs {
			svc, err := serve.New(serve.Config{
				Analysis: core.DefaultConfig(),
				CacheCap: *analCache,
				Debounce: *analDebounce,
				Logger:   logger,
			})
			if err != nil {
				return err
			}
			defer svc.Close()
			svcs[i] = svc
		}
	}

	health := obs.NewHealth()
	var debug *obs.DebugServer
	if *debugAddr != "" {
		mux := obs.DebugMux(obs.Default, health)
		paths := "/metrics /healthz /readyz /debug/vars /debug/pprof"
		switch {
		case len(svcs) == 1:
			mux.Handle("/analysis/", svcs[0].Handler())
			paths += " /analysis"
			dash, err := ui.New(svcs[0], obs.Default)
			if err != nil {
				return err
			}
			mux.Handle("/ui/", dash.Handler())
			mux.Handle("/ui", dash.Handler())
			paths += " /ui"
		case len(svcs) > 1:
			fan, err := serve.NewFanout(svcs...)
			if err != nil {
				return err
			}
			mux.Handle("/analysis/", fan.Handler())
			paths += " /analysis"
			logger.Info("sharded analysis surface: app-scoped endpoints delegate to the owning shard; /analysis/events and /ui are single-shard only")
		}
		// Per-endpoint request counters and latency histograms over the
		// whole debug surface (dashboard and SSE stream included).
		debug, err = obs.ServeDebug(*debugAddr, obs.Default.InstrumentHTTP(mux, nil))
		if err != nil {
			return err
		}
		defer debug.Close()
		logger.Info("debug endpoints up", "addr", debug.Addr(), "paths", paths)
	}

	var stores []*collect.SegStore
	defer func() {
		for _, st := range stores {
			st.Close()
		}
	}()
	var buildErr error
	srv, err := collect.NewShardedServer(*addr, *shards, func(i int) []collect.ServerOption {
		o := baseOpts()
		if *storeDir != "" {
			dir := *storeDir
			if *shards > 1 {
				dir = filepath.Join(dir, fmt.Sprintf("shard-%d", i))
			}
			store, err := openStore(dir, logger)
			if err != nil {
				buildErr = errors.Join(buildErr, err)
				return o
			}
			stores = append(stores, store)
			o = append(o, collect.WithStore(store))
		}
		if len(svcs) > 0 {
			o = append(o, collect.WithIngestHook(svcs[i].Notify))
		}
		return o
	})
	if err != nil {
		return errors.Join(buildErr, err)
	}
	if buildErr != nil {
		srv.Close()
		return buildErr
	}
	// Warm the analysis services from the restored stores so reports are
	// available before the first new upload arrives: each shard's store
	// streams into that shard's service, the same partition live
	// traffic is dispatched by.
	if len(svcs) > 0 && *storeDir != "" {
		restored := 0
		for i, sh := range srv.Shards() {
			err := sh.Scan(func(b *trace.TraceBundle) error {
				svcs[i].Notify(b)
				restored++
				return nil
			})
			if err != nil {
				srv.Close()
				return fmt.Errorf("warm analysis from shard %d: %w", i, err)
			}
		}
		for _, svc := range svcs {
			svc.Flush()
		}
		logger.Info("analysis warmed from restored store", "restored_bundles", restored)
	}
	health.SetReady(true)
	logger.Info("listening", "addr", srv.Addr(), "shards", *shards, "durable", *storeDir != "")

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	got := <-sig
	// Drain: flip the health endpoints before touching the listener so
	// load balancers stop routing, then close and wait for in-flight
	// handlers.
	health.ShuttingDown()
	preClose := srv.Stats()
	logger.Info("shutdown signal received", "signal", got.String(),
		"quarantined", srv.QuarantineCount(),
		"connections_inflight", preClose.ConnsOpen)
	start := time.Now()
	if err := srv.Close(); err != nil {
		return err
	}
	st := srv.Stats()
	logger.Info("drained",
		"connections_drained", preClose.ConnsOpen,
		"connections_total", st.ConnsTotal,
		"drain_elapsed", time.Since(start).Round(time.Millisecond),
		"accepted", st.Accepted, "duplicated", st.Duplicated,
		"quarantined", st.Quarantined, "bytes_ingested", st.BytesIngested)
	if injector != nil {
		logger.Info("injected faults", "stats", injector.Stats().String())
	}
	// One read pass per shard groups the corpus by app; the per-app
	// dumps are independent files, so they fan out through the pool.
	// Paths log serially afterwards to keep the output readable.
	corpus := make(map[string][]*trace.TraceBundle)
	for i, sh := range srv.Shards() {
		err := sh.Scan(func(b *trace.TraceBundle) error {
			corpus[b.Event.AppID] = append(corpus[b.Event.AppID], b)
			return nil
		})
		if err != nil {
			return fmt.Errorf("read shard %d for the dump: %w", i, err)
		}
	}
	appIDs := make([]string, 0, len(corpus))
	for app := range corpus {
		appIDs = append(appIDs, app)
	}
	sort.Strings(appIDs)
	type dumpStat struct {
		path    string
		bundles int
	}
	dumps, err := parallel.Map(*parallelism, len(appIDs), func(i int) (dumpStat, error) {
		bundles := corpus[appIDs[i]]
		path := filepath.Join(*out, appIDs[i]+".jsonl")
		if err := dump(path, bundles); err != nil {
			return dumpStat{}, fmt.Errorf("%s: %w", appIDs[i], err)
		}
		return dumpStat{path: path, bundles: len(bundles)}, nil
	})
	if err != nil {
		return err
	}
	flushed := 0
	for _, d := range dumps {
		flushed += d.bundles
		logger.Info("wrote corpus dump", "path", d.path, "bundles", d.bundles)
	}
	logger.Info("shutdown complete", "apps_flushed", len(dumps), "bundles_flushed", flushed)
	return nil
}

// openStore opens the segmented store in dir and imports any JSONL
// store files found there.
func openStore(dir string, logger *slog.Logger) (*collect.SegStore, error) {
	store, err := collect.NewSegStore(dir, seglog.Options{})
	if err != nil {
		return nil, err
	}
	imported, torn, err := collect.ImportJSONL(store, dir)
	if err != nil {
		store.Close()
		return nil, err
	}
	if imported > 0 || torn > 0 {
		logger.Info("imported JSONL store", "dir", dir, "bundles", imported, "torn_lines_dropped", torn)
	}
	return store, nil
}

func dump(path string, bundles []*trace.TraceBundle) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return trace.WriteBundles(f, bundles)
}

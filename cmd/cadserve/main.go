// Command cadserve runs a multi-tenant fleet of streaming CAD detectors as
// an HTTP service.
//
// Usage:
//
//	cadserve -sensors 26 -addr :8080 [-warmup history.csv]
//	         [-config detector.json | -w 200 -s 4 -k 10 -tau 0.5 -theta 0.3]
//	         [-capacity 64] [-idle-ttl 30m] [-snapdir /var/lib/cadserve]
//	         [-wal /var/lib/cadserve/wal] [-fsync always|interval|never]
//	         [-fsync-interval 100ms] [-pprof] [-logjson]
//	         [-webhook https://ops.example/hook] [-webhook-secret s3cret]
//	         [-alert-queue 256] [-alert-dlq /var/lib/cadserve/dlq]
//	         [-fleet] [-fleet-bucket 30s] [-fleet-window 60s]
//	         [-fleet-quiet 5m] [-fleet-min-streams 2]
//	         [-node-id n1 -advertise http://host1:8080
//	          -peers n2=http://host2:8080,n3=http://host3:8080]
//
// Operators create streams with POST /v1/streams and drive them through
// /v1/streams/{id}/…; the legacy unversioned routes (/ingest, /status,
// /alarms, /anomalies, /detect) serve the built-in "default" stream, which
// -sensors/-warmup configure. See internal/serve for the payloads, error
// codes, and exported metric names. -pprof additionally mounts the
// net/http/pprof profiling handlers under /debug/pprof/.
//
// -config loads the detector configuration from a JSON file in the same
// wire format POST /v1/streams accepts (and caddetect -config reads); it
// replaces the individual tuning flags. -capacity bounds how many streams
// stay resident; with -snapdir, overflowing and idle streams (-idle-ttl)
// are snapshotted to disk instead of rejected and restored transparently
// on their next request.
//
// -wal makes the fleet crash-safe: every ingested column is appended to a
// per-stream checksummed write-ahead log before it touches detector state,
// snapshots become persistent checkpoints (defaulting to <wal>/snapshots
// when -snapdir is not given), and on boot every persisted stream is
// recovered — newest checkpoint plus WAL replay — to the exact state of
// the previous run, including a warmed-up default stream (the -warmup
// detector then yields to the recovered one). -fsync picks when writes
// reach stable storage: "always" (default: an ingested column or a
// created stream is durable before the answer, at one fsync per append),
// "interval" (no fsync on the request path: one flusher makes everything
// acknowledged durable every -fsync-interval, and once more at shutdown),
// or "never" (leave it to the OS). If the disk fails while serving,
// cadserve degrades to memory-only ingest and reports it on GET /readyz.
//
// Alerts are pushed as they happen: every server exposes the live SSE feed
// (GET /v1/streams/{id}/events) and the sink CRUD (POST/GET /v1/sinks,
// DELETE /v1/sinks/{name}). -webhook registers an HTTP sink named
// "webhook" at boot; -webhook-secret makes it sign each body into the
// X-CAD-Signature header. Deliveries retry with exponential backoff behind
// a per-sink circuit breaker, and with -alert-dlq events that exhaust
// their retries are dead-lettered to disk and redelivered once on the next
// boot.
//
// -node-id/-advertise/-peers turn the server into a member of a static
// cadserve cluster: the stream fleet is sharded across the members by
// consistent hashing, any node accepts any /v1 request and transparently
// forwards stream-scoped traffic to the stream's owner (responses carry
// X-CAD-Node naming the serving node), collection reads (/v1/streams,
// /v1/incidents, the /v1/events SSE feed) scatter-gather across the live
// membership, and GET /v1/cluster reports this node's membership view.
// Each node health-checks its peers' /readyz and routes around members
// that stop answering; when a peer joins or recovers, the streams that
// hash to it are migrated over as snapshot + WAL-tail bundles, and a
// SIGTERM'd node drains its streams to the surviving members before
// exiting. The built-in default stream stays node-local. All members
// should be started with the same membership (each node lists the others
// in -peers) and, for durable migration, a -wal directory.
//
// -fleet enables the second-stage incident correlator: per-stream alarms
// from the bus are deduplicated (Stable Bloom filter keyed by stream and
// -fleet-bucket sized time bucket), clustered across streams within
// -fleet-window, and published back onto the bus as
// incident_opened/updated/closed events once -fleet-min-streams streams are
// implicated; an incident quiet for -fleet-quiet closes. Incidents are
// served on GET /v1/incidents (+ /v1/incidents/{id} and the SSE feed
// /v1/incidents/events) and reach every registered sink.
//
// The server logs one structured line per request (text to stderr, or JSON
// with -logjson), enforces read/write timeouts, and shuts down gracefully
// on SIGINT/SIGTERM, draining in-flight requests.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cad/internal/alert"
	"cad/internal/cluster"
	"cad/internal/core"
	"cad/internal/fleet"
	"cad/internal/manager"
	"cad/internal/mts"
	"cad/internal/obs"
	"cad/internal/serve"
)

func main() {
	var (
		sensors  = flag.Int("sensors", 0, "number of sensors of the default stream (required unless -warmup is given)")
		addr     = flag.String("addr", ":8080", "listen address")
		warmup   = flag.String("warmup", "", "anomaly-free CSV warming up the default stream")
		cfgFile  = flag.String("config", "", "detector config JSON file (replaces -w/-s/-k/-tau/-theta)")
		w        = flag.Int("w", 0, "sliding window length (0 = auto)")
		s        = flag.Int("s", 0, "window step (0 = auto)")
		k        = flag.Int("k", 0, "correlation neighbors per sensor (0 = auto)")
		tau      = flag.Float64("tau", 0.5, "correlation threshold τ")
		theta    = flag.Float64("theta", 0.3, "outlier threshold θ")
		capacity = flag.Int("capacity", 64, "max resident streams before eviction (needs -snapdir) or rejection")
		idleTTL  = flag.Duration("idle-ttl", 0, "evict streams idle this long (0 = never; needs -snapdir)")
		snapdir  = flag.String("snapdir", "", "directory for evicted-stream snapshots ('' disables eviction)")
		walDir   = flag.String("wal", "", "write-ahead-log directory enabling crash-safe durability ('' disables)")
		fsync    = flag.String("fsync", "always", "WAL/snapshot fsync policy: always, interval, or never")
		fsyncIv  = flag.Duration("fsync-interval", 100*time.Millisecond, "how often the flusher fsyncs the WALs under -fsync interval")
		pprofOn  = flag.Bool("pprof", false, "mount net/http/pprof handlers under /debug/pprof/")
		logJSON  = flag.Bool("logjson", false, "emit JSON logs instead of text")
		webhook  = flag.String("webhook", "", "alert webhook URL, registered as sink \"webhook\" ('' disables)")
		whSecret = flag.String("webhook-secret", "", "shared secret signing webhook bodies (X-CAD-Signature)")
		alertQ   = flag.Int("alert-queue", 256, "per-sink alert queue capacity")
		alertDLQ = flag.String("alert-dlq", "", "directory for the alert dead-letter queue ('' keeps failures in metrics only)")
		fleetOn  = flag.Bool("fleet", false, "enable the fleet-level incident correlator (serves /v1/incidents)")
		flBucket = flag.Duration("fleet-bucket", 0, "dedup time-bucket size (0 = default 30s)")
		flWindow = flag.Duration("fleet-window", 0, "cross-stream clustering window (0 = default 60s)")
		flQuiet  = flag.Duration("fleet-quiet", 0, "event-time silence closing an incident (0 = default 5m)")
		flMinStr = flag.Int("fleet-min-streams", 0, "distinct streams opening an incident (0 = default 2)")
		nodeID   = flag.String("node-id", "", "this node's id in a cadserve cluster ('' = single-node mode)")
		advert   = flag.String("advertise", "", "base URL peers reach this node at (required with -node-id)")
		peers    = flag.String("peers", "", "comma-separated id=url peer list forming the static cluster membership")
	)
	flag.Parse()
	logger := newLogger(*logJSON)
	fleetCfg := fleet.DefaultConfig()
	fleetCfg.BucketSize = *flBucket
	fleetCfg.ClusterWindow = *flWindow
	fleetCfg.QuietClose = *flQuiet
	fleetCfg.MinStreams = *flMinStr
	opts := serverOptions{
		addr: *addr, capacity: *capacity, idleTTL: *idleTTL, snapdir: *snapdir,
		walDir: *walDir, fsync: *fsync, fsyncIv: *fsyncIv,
		pprofOn: *pprofOn,
		webhook: *webhook, webhookSecret: *whSecret,
		alertQueue: *alertQ, alertDLQ: *alertDLQ,
		fleetOn: *fleetOn, fleetCfg: fleetCfg,
		nodeID: *nodeID, advertise: *advert, peers: *peers,
	}
	if err := run(*sensors, *warmup, *cfgFile, *w, *s, *k, *tau, *theta, opts, logger); err != nil {
		fmt.Fprintf(os.Stderr, "cadserve: %v\n", err)
		os.Exit(1)
	}
}

func newLogger(logJSON bool) *slog.Logger {
	if logJSON {
		return slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	return slog.New(slog.NewTextHandler(os.Stderr, nil))
}

// loadConfigFile reads a detector configuration in the shared JSON wire
// format (see core.Config.UnmarshalJSON) used by POST /v1/streams and
// caddetect -config.
func loadConfigFile(path string) (core.Config, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return core.Config{}, err
	}
	var cfg core.Config
	if err := json.Unmarshal(buf, &cfg); err != nil {
		return core.Config{}, fmt.Errorf("%s: %w", path, err)
	}
	return cfg, nil
}

// setup loads the optional warm-up series, derives the configuration — from
// the config file when given, from the tuning flags otherwise — and returns
// the warmed detector for the default stream (split from run so tests can
// exercise it without binding a socket).
func setup(sensors int, warmup, cfgFile string, w, s, k int, tau, theta float64) (*core.Detector, error) {
	var history *mts.MTS
	if warmup != "" {
		var err error
		history, err = mts.LoadCSV(warmup)
		if err != nil {
			return nil, fmt.Errorf("load %s: %w", warmup, err)
		}
		if sensors == 0 {
			sensors = history.Sensors()
		}
		if sensors != history.Sensors() {
			return nil, fmt.Errorf("-sensors %d but warm-up has %d", sensors, history.Sensors())
		}
	}
	if sensors < 2 {
		return nil, fmt.Errorf("need -sensors ≥ 2 or a -warmup file")
	}
	var cfg core.Config
	if cfgFile != "" {
		var err error
		cfg, err = loadConfigFile(cfgFile)
		if err != nil {
			return nil, err
		}
	} else {
		length := 10000
		if history != nil {
			length = history.Len()
		}
		cfg = core.DefaultConfig(sensors, length)
		cfg.Tau = tau
		cfg.Theta = theta
		if w > 0 && s > 0 {
			cfg.Window = mts.Windowing{W: w, S: s}
		}
		if k > 0 {
			cfg.K = k
		}
	}
	det, err := core.NewDetector(sensors, cfg)
	if err != nil {
		return nil, err
	}
	if history != nil {
		start := time.Now()
		if err := det.WarmUp(history); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		slog.Info("warm-up done", "rounds", det.Rounds(), "elapsed", time.Since(start),
			"mu", det.HistoryMean(), "sigma", det.HistoryStdDev())
	}
	return det, nil
}

// serverOptions bundles the service-level (not per-detector) flags.
type serverOptions struct {
	addr     string
	capacity int
	idleTTL  time.Duration
	snapdir  string
	walDir   string
	fsync    string
	fsyncIv  time.Duration
	pprofOn  bool

	webhook       string
	webhookSecret string
	alertQueue    int
	alertDLQ      string

	fleetOn  bool
	fleetCfg fleet.Config

	nodeID    string
	advertise string
	peers     string
}

// parsePeers parses the -peers list: comma-separated id=url entries.
func parsePeers(raw string) ([]cluster.Node, error) {
	if raw == "" {
		return nil, nil
	}
	var nodes []cluster.Node
	for _, entry := range strings.Split(raw, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		id, url, ok := strings.Cut(entry, "=")
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("-peers entry %q: want id=url", entry)
		}
		nodes = append(nodes, cluster.Node{ID: id, URL: url})
	}
	return nodes, nil
}

// newCluster builds this node's cluster view from the flags, or returns
// nil in single-node mode. The OnPeerUp hook rebalances: a peer that
// joins (or comes back) immediately receives the local streams the ring
// says it owns.
func newCluster(o serverOptions, reg *obs.Registry, logger *slog.Logger, mover func() cluster.StreamMover) (*cluster.Cluster, error) {
	if o.nodeID == "" && o.peers == "" {
		return nil, nil
	}
	if o.nodeID == "" || o.advertise == "" {
		return nil, fmt.Errorf("cluster mode needs both -node-id and -advertise")
	}
	nodes, err := parsePeers(o.peers)
	if err != nil {
		return nil, err
	}
	var cl *cluster.Cluster
	cl, err = cluster.New(cluster.Config{
		Self:      o.nodeID,
		Advertise: o.advertise,
		Peers:     nodes,
		Registry:  reg,
		Logger:    logger,
		OnPeerUp: func(p cluster.Node) {
			if n, err := cl.Rebalance(context.Background(), mover()); err != nil {
				logger.Warn("cluster rebalance", "peer", p.ID, "err", err)
			} else if n > 0 {
				logger.Info("cluster rebalanced", "peer", p.ID, "moved", n)
			}
		},
	})
	return cl, err
}

// newManager builds the stream registry from the service flags, publishing
// detection events onto bus. A non-nil fl is attached as a bus consumer.
func newManager(o serverOptions, reg *obs.Registry, bus *alert.Bus, fl *fleet.Fleet) *manager.Manager {
	return manager.New(manager.Options{
		Capacity:    o.capacity,
		IdleTTL:     o.idleTTL,
		SnapshotDir: o.snapdir,
		WALDir:      o.walDir,
		Fsync:       o.fsync,
		MaxAlarms:   1024,
		Registry:    reg,
		Alerts:      bus,
		Fleet:       fl,
	})
}

// newBus builds the alert bus and registers the flag-configured sinks. The
// bus always exists — the SSE feed and sink CRUD work without any flag —
// and a webhook flag adds the "webhook" sink before the DLQ backlog is
// drained, so dead letters from the previous run reach it.
func newBus(o serverOptions, reg *obs.Registry, logger *slog.Logger) (*alert.Bus, error) {
	bus, err := alert.NewBus(alert.Options{Registry: reg, DLQDir: o.alertDLQ, Logger: logger})
	if err != nil {
		return nil, fmt.Errorf("alert dlq: %w", err)
	}
	if o.webhook != "" {
		sink, err := alert.NewWebhookSink(o.webhook, []byte(o.webhookSecret), 0)
		if err != nil {
			_ = bus.Close()
			return nil, err
		}
		if err := bus.AddSink("webhook", sink, alert.SinkConfig{Queue: o.alertQueue}); err != nil {
			_ = bus.Close()
			return nil, err
		}
	}
	return bus, nil
}

// newServer assembles the HTTP server around svc: service routes, optional
// pprof handlers, and conservative timeouts. Split from run so tests can
// exercise the routing without binding a socket. The write timeout is
// generous because /detect runs a full batch detection inline.
func newServer(svc *serve.Service, addr string, pprofOn bool) *http.Server {
	mux := http.NewServeMux()
	mux.Handle("/", svc.Handler())
	if pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return &http.Server{
		Addr:              addr,
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
}

// advanceInterval picks how often the fleet's event-time clock is nudged
// forward: a quarter of the quiet-close window, clamped to [1s, 1m], so
// incidents close within ~1.25× their quiet window.
func advanceInterval(quiet time.Duration) time.Duration {
	iv := quiet / 4
	if iv < time.Second {
		iv = time.Second
	}
	if iv > time.Minute {
		iv = time.Minute
	}
	return iv
}

// sweepInterval picks how often the janitor runs: a quarter of the TTL,
// clamped to [10s, 5m], so an idle stream is evicted within ~1.25× its TTL
// without busy-looping on short TTLs.
func sweepInterval(ttl time.Duration) time.Duration {
	iv := ttl / 4
	if iv < 10*time.Second {
		iv = 10 * time.Second
	}
	if iv > 5*time.Minute {
		iv = 5 * time.Minute
	}
	return iv
}

func run(sensors int, warmup, cfgFile string, w, s, k int, tau, theta float64, o serverOptions, logger *slog.Logger) error {
	det, err := setup(sensors, warmup, cfgFile, w, s, k, tau, theta)
	if err != nil {
		return err
	}
	cfg := det.Config()
	if o.fsync != manager.FsyncAlways && o.fsync != manager.FsyncInterval && o.fsync != manager.FsyncNever {
		return fmt.Errorf("-fsync %q: want always, interval, or never", o.fsync)
	}
	if o.fsync == manager.FsyncInterval && o.fsyncIv <= 0 {
		return fmt.Errorf("-fsync-interval %v: want a positive duration", o.fsyncIv)
	}
	reg := obs.NewRegistry()
	bus, err := newBus(o, reg, logger)
	if err != nil {
		return err
	}
	defer bus.Close()
	var fl *fleet.Fleet
	if o.fleetOn {
		fl = fleet.New(o.fleetCfg, reg)
	}
	mgr := newManager(o, reg, bus, fl)
	// Recover persisted streams before the service adopts the default
	// stream, so a recovered default (warm state, alarm history) wins over
	// the freshly built detector.
	if stats, err := mgr.Recover(); err != nil {
		return fmt.Errorf("recover: %w", err)
	} else if o.walDir != "" {
		logger.Info("recovery done", "streams", stats.Recovered,
			"replayed", stats.Replayed, "quarantined", stats.Quarantined)
	}
	// With the sinks registered and recovery done, give the previous run's
	// dead letters their second chance.
	if n, err := bus.DrainDLQ(); err != nil {
		logger.Warn("draining alert dead-letter queue", "err", err)
	} else if n > 0 {
		logger.Info("redelivering dead-lettered alerts", "events", n)
	}
	cl, err := newCluster(o, reg, logger, func() cluster.StreamMover {
		return serve.ClusterMover{Mgr: mgr}
	})
	if err != nil {
		return err
	}
	svc := serve.NewWithOptions(det, serve.Options{Manager: mgr, Logger: logger, Alerts: bus, Cluster: cl})
	srv := newServer(svc, o.addr, o.pprofOn)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if cl != nil {
		cl.Start(ctx)
		logger.Info("cluster member", "node", o.nodeID, "advertise", o.advertise,
			"peers", cl.Ring().Len()-1)
	}

	if o.snapdir != "" && o.idleTTL > 0 {
		iv := sweepInterval(o.idleTTL)
		go func() {
			tick := time.NewTicker(iv)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					if n := mgr.Sweep(); n > 0 {
						logger.Info("swept idle streams", "evicted", n, "resident", mgr.Len())
					}
				}
			}
		}()
	}

	if o.walDir != "" && o.fsync == manager.FsyncInterval {
		// The flusher is the only fsync of WAL appends and creates under
		// the interval policy; its cadence bounds what a power cut loses.
		go func() {
			tick := time.NewTicker(o.fsyncIv)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					mgr.Flush()
				}
			}
		}()
	}

	if fl != nil {
		// Quiet incidents must close even when no further alarms arrive to
		// move the event-time clock, so a ticker feeds wall-clock time in.
		iv := advanceInterval(fl.Config().QuietClose)
		go func() {
			tick := time.NewTicker(iv)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					fl.Advance(time.Now())
				}
			}
		}()
		fcfg := fl.Config()
		logger.Info("fleet correlator on", "bucket", fcfg.BucketSize,
			"window", fcfg.ClusterWindow, "quiet", fcfg.QuietClose,
			"minStreams", fcfg.MinStreams)
	}

	logger.Info("cadserve listening", "addr", o.addr, "sensors", det.Sensors(),
		"w", cfg.Window.W, "s", cfg.Window.S, "k", cfg.K,
		"tau", cfg.Tau, "theta", cfg.Theta,
		"capacity", o.capacity, "idleTTL", o.idleTTL, "snapdir", o.snapdir,
		"wal", o.walDir, "fsync", o.fsync, "pprof", o.pprofOn)

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
		stop()
		logger.Info("shutting down", "reason", "signal")
		// Drain before anything closes: hand every local stream to the
		// surviving peers so the membership loses a node, not its streams.
		// Failures are non-fatal — the WAL still recovers them on restart.
		if cl != nil {
			dctx, dcancel := context.WithTimeout(context.Background(), 15*time.Second)
			if n, err := cl.Drain(dctx, serve.ClusterMover{Mgr: mgr}); err != nil {
				logger.Warn("cluster drain", "moved", n, "err", err)
			} else if n > 0 {
				logger.Info("cluster drained", "moved", n)
			}
			dcancel()
		}
		// Close the bus first: open SSE feeds block on it, and Shutdown
		// cannot drain them until their channels close. Sink queues get one
		// final delivery attempt per event; failures dead-letter.
		if err := bus.Close(); err != nil {
			logger.Warn("closing alert bus", "err", err)
		}
		sctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		err := srv.Shutdown(sctx)
		// The requests have drained: make what they acknowledged durable.
		mgr.Flush()
		if err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}

// Command lbserve runs the trusted server as an HTTP daemon — the
// deployable form of the paper's Fig. 1. Devices POST location updates
// and service requests; forwarded requests are printed (or discarded)
// on the SP side.
//
// Usage:
//
//	lbserve -addr :7408 -k 5 -print-forwarded
//	curl -s localhost:7408/healthz
//	curl -s -XPOST localhost:7408/v1/request -d '{"user":1,"x":10,"y":10,"t":25500,"service":"navigation"}'
//
// Observability (see OBSERVABILITY.md for the full reference):
//
//	lbserve -trace-sample 0.001 -trace-tail-slow 50ms -metrics-exemplars -audit audit.jsonl -pprof
//	curl -s localhost:7408/metrics             # Prometheus text exposition
//	curl -s localhost:7408/v1/spans            # recent retained request spans
//	curl -s localhost:7408/v1/spans?trace=ID   # one trace (request + delivery spans)
//	curl -s localhost:7408/v1/spans/summary    # outcome / keep-reason / stage breakdown
//	go tool pprof localhost:7408/debug/pprof/profile?seconds=10
//
// Requests may carry a W3C traceparent header; the response rejoins
// the caller's trace and anomalous requests (degraded, denied,
// dropped, breaker-affected, slow) are always tail-retained in the
// span ring regardless of the -trace-sample head rate.
//
// Resilience (see DESIGN.md §9): SP delivery runs through a bounded
// async queue with retries and per-service circuit breaking; overload
// is shed with 503s. With -wal-dir the PHL lives in the durable tiered
// store (DESIGN.md §12): boot recovers it from the write-ahead log and
// snapshot chain, and SIGINT/SIGTERM checkpoints it. When delivery
// cannot be guaranteed the server fails closed — requests are
// suppressed, never forwarded less generalized.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"histanon/internal/httpapi"
	"histanon/internal/mixzone"
	"histanon/internal/obs"
	"histanon/internal/policy"
	"histanon/internal/resilience"
	"histanon/internal/slo"
	"histanon/internal/storage"
	"histanon/internal/ts"
	"histanon/internal/wire"
)

func main() {
	var (
		addr       = flag.String("addr", ":7408", "listen address")
		k          = flag.Int("k", 5, "default historical anonymity value")
		randomize  = flag.Int64("randomize", 0, "seed for the randomization defense (0 = off)")
		policyFile = flag.String("policies", "", "rule-based policy file (see internal/policy)")
		printFwd   = flag.Bool("print-forwarded", false, "log every request forwarded to the SP side")

		walDir    = flag.String("wal-dir", "", "durable tiered PHL storage directory: write-ahead log + incremental snapshots + cold tier; boot recovers the PHL from it (see DESIGN.md §12)")
		walFsync  = flag.String("wal-fsync", "batch", "WAL fsync policy: batch (group commit, default), always (fsync per record), none (fsync only on rotation/shutdown)")
		hotWindow = flag.Duration("hot-window", time.Hour, "how much recent history stays in memory; older samples demote to on-disk runs (needs -wal-dir)")
		coldCache = flag.Int("cold-cache-entries", 1024, "LRU cache capacity for cold-tier run reads (needs -wal-dir)")
		sample    = flag.Float64("trace-sample", 0.01, "fraction of requests to trace into /v1/spans and the stage histograms (0 = off, 1 = all)")
		traceBuf  = flag.Int("trace-buffer", obs.DefaultRingSize, "span ring-buffer capacity")
		tailSlow  = flag.Duration("trace-tail-slow", 0, "tail-sampling slow threshold: completed spans at least this slow are retained even when head sampling missed them (0 = off)")
		exemplars = flag.Bool("metrics-exemplars", false, "emit OpenMetrics exemplars (trace ids) on /metrics histogram buckets")
		auditPath = flag.String("audit", "", "privacy audit log (JSON lines), appended; flushed on SIGINT/SIGTERM")
		pprofOn   = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (operator networks only)")

		// Privacy-SLO engine: windowed burn-rate alerting over the
		// decision stream plus the live re-identification canary
		// (GET /v1/slo, the SLO section of /healthz, histanon_slo_*).
		sloOn        = flag.Bool("slo", true, "enable the privacy-SLO engine (windowed achieved-k tracking and burn-rate alerts)")
		sloObjective = flag.String("slo-objective", "below_k<0.1%", "privacy objectives, comma-separated signal<budget%[;warn=F][;page=F][;min=N] (signals: below_k, suppression, degraded)")
		sloWindows   = flag.String("slo-windows", "1m,10m,1h", "SLO sliding windows, comma-separated durations, strictly increasing whole seconds")
		canaryEvery  = flag.Duration("canary-interval", 0, "re-identification canary probe interval (0 = canary off); probes replay recent forwarded requests through the LT-consistency attack, read-only and rate-limited")

		// HTTP hardening: slowloris and overload protection.
		readTimeout  = flag.Duration("read-timeout", 10*time.Second, "http.Server ReadTimeout")
		readHdrTO    = flag.Duration("read-header-timeout", 5*time.Second, "http.Server ReadHeaderTimeout")
		writeTimeout = flag.Duration("write-timeout", 10*time.Second, "http.Server WriteTimeout (raised to 60s when -pprof so CPU profiles can stream)")
		idleTimeout  = flag.Duration("idle-timeout", 120*time.Second, "http.Server IdleTimeout for keep-alive connections")
		maxInFlight  = flag.Int("max-inflight", 256, "concurrently served requests before shedding with 503 (0 = unlimited)")
		maxBody      = flag.Int64("max-body", httpapi.DefaultMaxBodyBytes, "request body byte bound; larger bodies get 413")

		wireBatch     = flag.Bool("wire-batch", true, "serve the binary wire-protocol batch endpoint (POST /v1/batch)")
		wireBatchBody = flag.Int64("wire-batch-max-body", wire.MaxFrameBytes+16, "body byte bound for /v1/batch (binary batches outgrow JSON bodies; 0 = use -max-body)")

		// Async SP delivery: queue, retries, circuit breaking.
		spQueue      = flag.Int("sp-queue", 1024, "async SP delivery queue bound; a full queue suppresses new requests (fail closed)")
		spWorkers    = flag.Int("sp-workers", 4, "concurrent SP delivery workers")
		spRetries    = flag.Int("sp-retries", 4, "delivery attempts per request before dropping")
		spDeadline   = flag.Duration("sp-deadline", 5*time.Second, "end-to-end delivery budget per request, enqueue to last retry")
		spBrFailures = flag.Int("sp-breaker-failures", 5, "consecutive delivery failures before a service's circuit breaker opens")
		spBrReset    = flag.Duration("sp-breaker-reset", 5*time.Second, "how long an open breaker waits before probing the service again")
	)
	flag.Parse()

	cfg := ts.Config{
		DefaultPolicy: ts.Policy{K: *k},
		OnDemand: mixzone.OnDemand{
			Quiet:          600,
			Divergence:     mixzone.Divergence{MinAngle: 0.3},
			FallbackRadius: 800,
		},
		RandomizeSeed: *randomize,
	}
	if *policyFile != "" {
		f, err := os.Open(*policyFile)
		if err != nil {
			log.Fatalf("lbserve: %v", err)
		}
		set, err := policy.Parse(f)
		f.Close()
		if err != nil {
			log.Fatalf("lbserve: parsing policies: %v", err)
		}
		cfg.Policies = set
		log.Printf("loaded %d policy rules", len(set.Rules))
	}

	// The audit log opens before the outbox so the delivery workers see
	// a settled sink (a nil *AuditLog is a valid no-op).
	var audit *obs.AuditLog
	if *auditPath != "" {
		f, err := os.OpenFile(*auditPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatalf("lbserve: opening audit log: %v", err)
		}
		audit = obs.NewAuditLog(f)
		log.Printf("audit log appending to %s", *auditPath)
	}

	// The SP side: the print/discard sink, wrapped in the resilience
	// outbox so delivery is asynchronous, retried, circuit-broken and —
	// when it cannot be guaranteed — refused, which the trusted server
	// turns into a fail-closed suppression.
	sink := resilience.DeliveryFunc(func(req *wire.Request) error {
		if *printFwd {
			log.Printf("SP <- %s", req)
		}
		return nil
	})
	outbox := resilience.NewOutbox(sink, resilience.Options{
		QueueSize:   *spQueue,
		Workers:     *spWorkers,
		Deadline:    *spDeadline,
		MaxAttempts: *spRetries,
		Breaker: resilience.BreakerConfig{
			FailureThreshold: *spBrFailures,
			OpenFor:          *spBrReset,
		},
		Audit: func(e obs.Event) { audit.Log(e) },
	})
	// Durable tiered storage: when -wal-dir is set the PHL lives in a
	// WAL + snapshot-chain store and survives crashes; the store also
	// serves as the spatio-temporal index so demotion stays invisible
	// to Algorithm 1. A WAL failure is fail-stop: the server suppresses
	// every request until restarted on a healthy disk.
	var tiered *storage.TieredStore
	if *walDir != "" {
		sync, err := storage.ParseSyncPolicy(*walFsync)
		if err != nil {
			log.Fatalf("lbserve: %v", err)
		}
		st, info, err := storage.Open(storage.Options{
			Dir:              *walDir,
			Sync:             sync,
			HotWindow:        int64(hotWindow.Seconds()),
			ColdCacheEntries: *coldCache,
		})
		if err != nil {
			log.Fatalf("lbserve: opening storage %s: %v", *walDir, err)
		}
		tiered = st
		cfg.Store = st
		log.Printf("recovered %d users / %d samples from %s in %s (%d cold, %d WAL records replayed, torn tail: %v)",
			st.NumUsers(), st.NumSamples(), *walDir, info.Duration.Round(time.Millisecond),
			info.ColdSamples, info.Replayed, info.TornTail)
	}

	// SLO engine configuration must settle before ts.New: the engine's
	// windows and objectives are fixed at construction (the metric
	// families registered per window depend on them).
	if *sloOn {
		objectives, err := slo.ParseObjectives(*sloObjective)
		if err != nil {
			log.Fatalf("lbserve: -slo-objective: %v", err)
		}
		windows, err := slo.ParseWindows(*sloWindows)
		if err != nil {
			log.Fatalf("lbserve: -slo-windows: %v", err)
		}
		cfg.SLO = slo.Options{Windows: windows, Objectives: objectives}
	}

	srv := ts.New(cfg, outbox)
	if *sloOn {
		srv.SLO.SetEnabled(true)
		log.Printf("privacy-SLO engine on: objectives %q, windows %q", *sloObjective, *sloWindows)
	}

	// Observability knobs: span sampling, ring size, tail sampling,
	// exemplars, audit sink, delivery spans. The tracer swap must precede
	// MetricsRegistry (the registry captures the tracer's counters), and
	// all of it happens here, before traffic starts.
	if *traceBuf != obs.DefaultRingSize {
		srv.Obs.Tracer = obs.NewTracer(*traceBuf)
	}
	srv.Obs.Tracer.SetSampleRate(*sample)
	srv.Obs.Tracer.SetTailSlow(*tailSlow)
	if *exemplars {
		srv.Obs.SetExemplars(true)
		srv.MetricsRegistry().SetExemplars(true)
	}
	if audit != nil {
		srv.Obs.SetAudit(audit)
	}
	// Delivery spans: the outbox records one child span per traced
	// request it processes (queue wait, attempts, retries).
	outbox.SetSpanSink(srv.Obs)

	handler := httpapi.New(srv)
	handler.SetMaxInFlight(*maxInFlight)
	handler.SetMaxBodyBytes(*maxBody)
	handler.SetWireBatch(*wireBatch)
	handler.SetWireBatchMaxBodyBytes(*wireBatchBody)
	handler.SetOutbox(outbox)
	if !*wireBatch {
		log.Printf("binary wire batch endpoint disabled")
	}
	if tiered != nil {
		handler.SetStorage(tiered)
	}
	// The re-identification canary: read-only LT-consistency probes over
	// recently forwarded requests, deferring to admission pressure (the
	// handler's saturation state is its pressure hook).
	var canaryStop chan struct{}
	if *sloOn && *canaryEvery > 0 {
		canary := slo.NewCanary(slo.CanaryOptions{
			Store:    srv.Store(),
			Interval: *canaryEvery,
			Pressure: handler.UnderPressure,
		})
		srv.SLO.AttachCanary(canary)
		canaryStop = make(chan struct{})
		go canary.Run(canaryStop)
		log.Printf("re-identification canary probing every %s", *canaryEvery)
	}
	wto := *writeTimeout
	if *pprofOn {
		handler.EnablePprof()
		// CPU profiles stream for their whole duration; leave room for
		// /debug/pprof/profile?seconds=30.
		if wto < 60*time.Second {
			wto = 60 * time.Second
		}
		log.Printf("pprof enabled under /debug/pprof/")
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadTimeout:       *readTimeout,
		ReadHeaderTimeout: *readHdrTO,
		WriteTimeout:      wto,
		IdleTimeout:       *idleTimeout,
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigCh
		// Shutdown order: stop the canary, drain the delivery queue,
		// checkpoint the durable store, flush the audit log (the drain
		// can append drop events), then close the listener.
		if canaryStop != nil {
			close(canaryStop)
		}
		outbox.Close()
		if tiered != nil {
			if err := tiered.Close(); err != nil {
				log.Printf("lbserve: closing storage: %v", err)
			} else {
				log.Printf("storage checkpointed to %s", *walDir)
			}
		}
		if err := audit.Close(); err != nil {
			log.Printf("lbserve: closing audit log: %v", err)
		}
		httpSrv.Close()
	}()

	fmt.Printf("lbserve: trusted server listening on %s (k=%d)\n", *addr, *k)
	if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatalf("lbserve: %v", err)
	}
}

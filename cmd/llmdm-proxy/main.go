// Command llmdm-proxy serves the LLM proxy of the paper's Section III-B
// over HTTP: a semantic cache, in-flight deduplication, the model
// cascade, and an optional adaptive micro-batching scheduler stacked in
// front of the simulated model family — fully instrumented with the
// internal/obs metrics registry, request tracing, a structured
// lifecycle event log, per-class SLO burn-rate tracking, per-tenant
// attribution, a declarative alert engine and a Go runtime collector.
//
//	llmdm-proxy -addr :8080 -batch
//	curl -s localhost:8080/v1/complete -H 'X-LLMDM-Tenant: acme' -d '{"prompt":"...","gold":"...","difficulty":0.3}'
//	curl -s localhost:8080/v1/complete -d '{"prompt":"...","gold":"...","priority":"batch"}'
//	curl -sN localhost:8080/v1/complete -d '{"prompt":"...","gold":"...","stream":true}'   # SSE token stream
//	curl -s localhost:8080/v1/stats
//	curl -s localhost:8080/v1/slo           # per-class SLO scorecard + burn rates
//	curl -s localhost:8080/v1/tenants       # per-tenant spend/latency attribution
//	curl -s localhost:8080/v1/alerts        # alert rule states
//	curl -s localhost:8080/metrics          # Prometheus text exposition
//	curl -s localhost:8080/debug/traces     # recent request span trees (JSON)
//	curl -s 'localhost:8080/debug/events?trace=t1f'  # one request's event story
//	curl -s 'localhost:8080/debug/events?tenant=acme&since=120'  # one tenant's story, cursored
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/proxy"
	"repro/internal/sched"
)

// shutdownGrace bounds how long a SIGINT/SIGTERM waits for requests in
// flight before the process exits anyway.
const shutdownGrace = 10 * time.Second

// listenAndServe is swapped out by tests so run can be exercised end to
// end without binding a socket. The server bounds how long a client may
// take over its request headers; it sets no WriteTimeout, which would cut
// SSE streams short. On SIGINT/SIGTERM it stops accepting, gives requests
// in flight shutdownGrace to finish and returns nil (Shutdown's error when
// the grace runs out), so run unwinds through its defers: alert engine,
// proxy and scheduler, runtime collector.
var listenAndServe = func(addr string, h http.Handler) error {
	srv := &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: 10 * time.Second}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	drained := make(chan error, 1)
	go func() {
		<-ctx.Done() // a signal, or stop() after a failed listen
		grace, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		drained <- srv.Shutdown(grace)
	}()
	if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return <-drained
}

func main() {
	if err := run(os.Args[1:], os.Stderr); err != nil {
		log.Fatalf("llmdm-proxy: %v", err)
	}
}

// run parses and validates args, builds the proxy stack, and serves it.
// It is main minus the process exit, so tests can drive every flag
// combination as data.
func run(args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("llmdm-proxy", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "listen address")
	threshold := fs.Float64("threshold", 0.62, "cascade confidence threshold")
	exitThreshold := fs.Float64("exit-threshold", 0.35, "streamed early-exit confidence threshold (abort + escalate a tier mid-generation below it)")
	noEarlyExit := fs.Bool("no-early-exit", false, "disable mid-generation early exit on streamed requests")
	capacity := fs.Int("cache-capacity", 10000, "semantic cache capacity (0 = unbounded)")
	noCache := fs.Bool("no-cache", false, "disable the semantic cache")
	traces := fs.Int("traces", obs.DefaultTraceCapacity, "request traces retained for /debug/traces; also how many request traces a second are kept (errors, sheds, stale serves and SLO misses always are)")
	events := fs.Int("events", obs.DefaultEventCapacity, "lifecycle events retained for /debug/events")
	logLevel := fs.String("log-level", "debug", "minimum event level recorded: debug, info, warn or error")
	maxConcurrent := fs.Int("max-concurrent", 0, "max requests served at once (0 = unlimited)")
	maxQueue := fs.Int("max-queue", 0, "callers queued for a slot before shedding")
	batch := fs.Bool("batch", false, "enable the adaptive micro-batching scheduler")
	batchMax := fs.Int("batch-max", sched.DefaultMaxBatch, "max requests per batch")
	batchWait := fs.Duration("batch-wait", 0, "max batch window, e.g. 4ms (0 = scheduler default)")
	noSLO := fs.Bool("no-slo", false, "disable per-class SLO tracking (/v1/slo)")
	tenantCap := fs.Int("tenants", obs.DefaultTenantCapacity, "tenants tracked individually before heavy-hitter eviction")
	noTenants := fs.Bool("no-tenants", false, "disable per-tenant attribution (/v1/tenants)")
	noAlerts := fs.Bool("no-alerts", false, "disable the alert engine (/v1/alerts)")
	alertInterval := fs.Duration("alert-interval", 15*time.Second, "background alert evaluation period (0 = evaluate only on /v1/alerts and /healthz reads)")
	pprofOn := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	runtimeInterval := fs.Duration("runtime-interval", obs.DefaultRuntimeInterval, "Go runtime sampling period for go_* metrics (0 disables the collector)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Validate before building anything: a proxy constructed on nonsense
	// limits would only fail later and stranger.
	if *traces <= 0 {
		return fmt.Errorf("-traces must be > 0 (got %d): the trace ring cannot be empty", *traces)
	}
	if *events <= 0 {
		return fmt.Errorf("-events must be > 0 (got %d): the event ring cannot be empty", *events)
	}
	// proxy.Config reads a zero threshold as "the default", so 0 would be
	// replaced, not used.
	if *threshold <= 0 || *threshold > 1 {
		return fmt.Errorf("-threshold must be in (0, 1] (got %g)", *threshold)
	}
	if *exitThreshold <= 0 || *exitThreshold > 1 {
		return fmt.Errorf("-exit-threshold must be in (0, 1] (got %g); -no-early-exit turns early exit off", *exitThreshold)
	}
	if *capacity < 0 {
		return fmt.Errorf("-cache-capacity must be >= 0 (got %d)", *capacity)
	}
	if *maxConcurrent < 0 {
		return fmt.Errorf("-max-concurrent must be >= 0 (got %d)", *maxConcurrent)
	}
	if *maxQueue < 0 {
		return fmt.Errorf("-max-queue must be >= 0 (got %d)", *maxQueue)
	}
	if *batchMax < 1 {
		return fmt.Errorf("-batch-max must be >= 1 (got %d)", *batchMax)
	}
	if *batchWait < 0 {
		return fmt.Errorf("-batch-wait must be >= 0 (got %s)", *batchWait)
	}
	if *tenantCap <= 0 {
		return fmt.Errorf("-tenants must be > 0 (got %d)", *tenantCap)
	}
	if *alertInterval < 0 {
		return fmt.Errorf("-alert-interval must be >= 0 (got %s)", *alertInterval)
	}
	if *runtimeInterval < 0 {
		return fmt.Errorf("-runtime-interval must be >= 0 (got %s)", *runtimeInterval)
	}
	min, ok := obs.ParseLevel(*logLevel)
	if !ok {
		return fmt.Errorf("unknown -log-level %q (want debug, info, warn or error)", *logLevel)
	}

	ring := obs.NewEventLog(*events)
	cfg := proxy.Config{
		Threshold:        *threshold,
		ExitThreshold:    *exitThreshold,
		DisableEarlyExit: *noEarlyExit,
		CacheCapacity:    *capacity,
		DisableCache:     *noCache,
		MaxConcurrent:    *maxConcurrent,
		MaxQueue:         *maxQueue,
		Tracer:           obs.NewTracer(*traces),
		Log:              obs.NewLogger(ring, min, obs.Default),
		DisableSLO:       *noSLO,
		TenantCapacity:   *tenantCap,
		DisableTenants:   *noTenants,
		DisableAlerts:    *noAlerts,
		EnablePprof:      *pprofOn,
	}
	if *batch {
		cfg.Scheduler = &sched.Config{
			MaxBatch: *batchMax,
			MaxWait:  *batchWait,
		}
	}
	if *runtimeInterval > 0 {
		stop := obs.StartRuntimeCollector(obs.Default, *runtimeInterval)
		defer stop()
	}
	p := proxy.New(cfg)
	defer p.Close()
	if a := p.Alerts(); a != nil && *alertInterval > 0 {
		stop := a.Start(*alertInterval)
		defer stop()
	}
	log.Printf("llmdm-proxy listening on %s (cache=%t, cascade threshold=%.2f, stream early-exit=%t@%.2f, batching=%t, trace ring=%d, event ring=%d, slo=%t, tenants=%t, alerts=%t, pprof=%t)",
		*addr, !*noCache, *threshold, !*noEarlyExit, *exitThreshold, *batch, *traces, *events, !*noSLO, !*noTenants, !*noAlerts, *pprofOn)
	log.Printf("endpoints: POST /v1/complete · GET /v1/stats /v1/slo /v1/tenants /v1/alerts /metrics /debug/traces /debug/events /healthz")
	return listenAndServe(*addr, p.Handler())
}

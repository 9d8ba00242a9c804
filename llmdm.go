// Package llmdm is an offline, stdlib-only reproduction of "Applications
// and Challenges for Large Language Models: From Data Management
// Perspective" (Zhang et al., ICDE 2024).
//
// It packages the paper's four application categories — data generation,
// data transformation, data integration and data exploration — and its five
// challenge remedies — prompt optimization, query optimization (cascade,
// decomposition, combination), semantic caching, privacy-preserving
// training and output validation — on top of a simulated LLM family, a real
// in-memory SQL engine and a real vector store. See DESIGN.md for the full
// system inventory and EXPERIMENTS.md for the paper-vs-measured results.
//
// The facade exposes the pieces most users need: a Client bundling the
// model family with the application toolkits, the end-to-end Pipeline of
// the paper's Figure 1, and the experiment harness regenerating every table
// and figure.
//
//llmdm:allow reach the public facade: its exported API is the library surface users and the examples import
package llmdm

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/core/cascade"
	"repro/internal/core/datagen"
	"repro/internal/core/explore"
	"repro/internal/core/integrate"
	"repro/internal/core/qopt"
	"repro/internal/core/semcache"
	"repro/internal/core/transform"
	"repro/internal/embed"
	"repro/internal/exper"
	"repro/internal/llm"
	"repro/internal/obs"
	"repro/internal/proxy"
	"repro/internal/sched"
	"repro/internal/sqlkit"
	"repro/internal/token"
	"repro/internal/workload"
)

// Version identifies the library release.
const Version = "1.0.0"

// Aliases re-exporting the core vocabulary so downstream code can work
// entirely through this package.
type (
	// Report is one regenerated experiment table.
	Report = exper.Report
	// Model is a simulated LLM.
	Model = llm.Model
	// Cost is an amount of money in micro-dollars.
	Cost = token.Cost
	// DB is the in-memory SQL engine.
	DB = sqlkit.DB
	// MetricsRegistry collects counters, gauges and histograms from every
	// component built over it (see WithMetricsRegistry). It serves both
	// Prometheus text and JSON expositions.
	MetricsRegistry = obs.Registry
	// SchedulerConfig parameterizes the micro-batching scheduler
	// (see WithScheduler). The zero value selects sensible defaults.
	SchedulerConfig = sched.Config
	// Priority is a batching-scheduler request class; attach it to a
	// context with WithPriority.
	Priority = sched.Class
	// Stream is one client's view of a token-streamed completion, as
	// returned by the proxy's CompleteStream method.
	Stream = proxy.Stream
	// Chunk is one server-sent piece of a streamed completion.
	Chunk = proxy.Chunk
)

// Scheduler priority classes.
const (
	// PriorityInteractive is the default, latency-sensitive class.
	PriorityInteractive = sched.Interactive
	// PriorityBatch marks bulk traffic (experiments, backfills) that must
	// not crowd out interactive requests.
	PriorityBatch = sched.Batch
	// PriorityStreaming bypasses micro-batching entirely; the proxy's
	// CompleteStream applies it automatically.
	PriorityStreaming = sched.Streaming
)

// NewMetricsRegistry returns an empty metrics registry to share across
// clients and proxies via WithMetricsRegistry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// WithPriority marks every request issued under ctx with the given
// scheduler priority class.
func WithPriority(ctx context.Context, p Priority) context.Context {
	return sched.WithClass(ctx, p)
}

// Model tier names, mirroring the paper's Table I.
const (
	ModelSmall  = llm.NameSmall
	ModelMedium = llm.NameMedium
	ModelLarge  = llm.NameLarge
)

// Client bundles the model family with the application toolkits.
type Client struct {
	family llm.Family
	emb    *embed.Embedder
	reg    *obs.Registry
}

// Option configures a Client (see NewClient).
type Option func(*Client)

// WithMetricsRegistry routes the client's model-family metrics — and
// those of every proxy built from it — into reg instead of the global
// default registry. Use it to isolate metrics per client or to scrape
// several clients separately.
func WithMetricsRegistry(reg *MetricsRegistry) Option {
	return func(c *Client) { c.reg = reg }
}

// NewClient returns a Client over the default three-tier model family.
func NewClient(opts ...Option) *Client {
	c := &Client{emb: embed.New(embed.DefaultDim)}
	for _, opt := range opts {
		opt(c)
	}
	c.family = llm.DefaultFamilyObs(c.reg)
	return c
}

// Model returns the named tier (ModelSmall, ModelMedium, ModelLarge).
func (c *Client) Model(name string) (Model, error) {
	m := c.family.ByName(name)
	if m == nil {
		return nil, fmt.Errorf("llmdm: unknown model %q", name)
	}
	return m, nil
}

// Spend reports the total spend across all tiers since the last reset.
func (c *Client) Spend() Cost { return c.family.TotalSpend() }

// ResetSpend zeroes the usage meters.
func (c *Client) ResetSpend() { c.family.ResetMeters() }

// Cascade returns an LLM cascade over the whole family with the given
// confidence threshold (paper Figure 6).
func (c *Client) Cascade(threshold float64) *cascade.Cascade {
	return cascade.New(cascade.Threshold{Tau: threshold}, c.family.Models()...)
}

// Translator returns the NL2SQL translator on the named tier.
func (c *Client) Translator(model string) (*transform.Translator, error) {
	m, err := c.Model(model)
	if err != nil {
		return nil, err
	}
	return transform.NewTranslator(m), nil
}

// Planner returns the batched NL2SQL query optimizer (decomposition +
// combination, paper Table II) on the named tier.
func (c *Client) Planner(model string) (*qopt.Planner, error) {
	tr, err := c.Translator(model)
	if err != nil {
		return nil, err
	}
	return qopt.NewPlanner(tr), nil
}

// SemanticCache returns a semantic LLM cache (paper Table III).
func (c *Client) SemanticCache(capacity int, threshold float64) *semcache.Cache {
	return semcache.New(semcache.Config{
		Embedder:  c.emb,
		Capacity:  capacity,
		Threshold: threshold,
		Policy:    semcache.Weighted,
	})
}

// Lake returns an empty multi-modal data lake (paper Section II-D).
func (c *Client) Lake() *explore.Lake { return explore.NewLake(c.emb) }

// ProxyOption configures the serving proxy built by Client.Proxy.
type ProxyOption func(*proxy.Config)

// WithCacheCapacity bounds the proxy's semantic cache to n entries
// (0 = unbounded, the default).
func WithCacheCapacity(n int) ProxyOption {
	return func(cfg *proxy.Config) { cfg.CacheCapacity = n }
}

// WithCacheThreshold sets the semantic-cache hit similarity bound
// (default 0.97).
func WithCacheThreshold(sim float64) ProxyOption {
	return func(cfg *proxy.Config) { cfg.CacheThreshold = sim }
}

// WithoutCache disables the semantic cache (for ablations).
func WithoutCache() ProxyOption {
	return func(cfg *proxy.Config) { cfg.DisableCache = true }
}

// WithCascadeThreshold sets the cascade's confidence acceptance
// threshold (default cascade.DefaultTau, 0.62).
func WithCascadeThreshold(tau float64) ProxyOption {
	return func(cfg *proxy.Config) { cfg.Threshold = tau }
}

// WithEarlyExit sets the streamed cascade's mid-generation exit
// threshold: a non-final tier whose per-chunk confidence drops below it
// is aborted and escalated immediately, billing only the chunks already
// emitted (default 0.35).
func WithEarlyExit(threshold float64) ProxyOption {
	return func(cfg *proxy.Config) {
		cfg.ExitThreshold = threshold
		cfg.DisableEarlyExit = false
	}
}

// WithoutEarlyExit disables mid-generation early exit: every streamed
// tier runs to completion before the cascade decides.
func WithoutEarlyExit() ProxyOption {
	return func(cfg *proxy.Config) { cfg.DisableEarlyExit = true }
}

// WithScheduler places a micro-batching scheduler between the cascade
// and the model family: concurrent requests to the same tier share
// batches, and bulk traffic is weighted-fairly interleaved with
// interactive traffic (see WithPriority). A tier never waits to fill a
// batch: it flushes whatever is queued at once, so batches grow only
// while earlier batches keep the tier busy. The zero SchedulerConfig
// selects defaults. Call the proxy's Close method to drain the scheduler
// on shutdown.
func WithScheduler(cfg SchedulerConfig) ProxyOption {
	return func(pc *proxy.Config) { pc.Scheduler = &cfg }
}

// ResilienceConfig parameterizes the proxy's load shedding (see
// WithResilience). The zero value sets no concurrency limit. The proxy's
// other protections are always on: per-model circuit breakers and a 30s
// upstream timeout. A request the cascade cannot answer fails with a
// retryable error; it is never answered from the cache below the hit
// threshold.
type ResilienceConfig struct {
	// MaxConcurrent caps requests served at once; 0 disables the limiter.
	MaxConcurrent int
	// MaxQueue bounds callers waiting for a slot once MaxConcurrent is
	// reached; beyond it requests are shed.
	MaxQueue int
}

// WithResilience configures the proxy's load shedding.
func WithResilience(rc ResilienceConfig) ProxyOption {
	return func(cfg *proxy.Config) {
		cfg.MaxConcurrent = rc.MaxConcurrent
		cfg.MaxQueue = rc.MaxQueue
	}
}

// Proxy returns the serving proxy of the paper's Section III-B — semantic
// cache, in-flight deduplication and the cascade stacked in front of this
// client's model family, configured through functional options:
//
//	p := client.Proxy(
//	        llmdm.WithCacheCapacity(10_000),
//	        llmdm.WithCascadeThreshold(0.62),
//	        llmdm.WithScheduler(llmdm.SchedulerConfig{}),
//	)
//
// Serve it with net/http via its Handler method — POST /v1/complete
// with "stream": true streams the completion as Server-Sent Events —
// or stream in-process through its CompleteStream method (see Stream
// and Chunk). The proxy meters into the client's metrics registry (see
// WithMetricsRegistry).
func (c *Client) Proxy(opts ...ProxyOption) *proxy.Proxy {
	cfg := proxy.Config{Models: c.family.Models(), Obs: c.reg}
	for _, opt := range opts {
		opt(&cfg)
	}
	return proxy.New(cfg)
}

// SQLGenerator returns the constraint-aware SQL generator over db (paper
// Figure 2).
func (c *Client) SQLGenerator(db *DB, model string, seed int64) (*datagen.Generator, error) {
	m, err := c.Model(model)
	if err != nil {
		return nil, err
	}
	return datagen.NewGenerator(db, m, seed), nil
}

// Resolver returns an entity resolver on the named tier (paper Section
// II-C).
func (c *Client) Resolver(model string, threshold float64, compareCols []string, blockCol string) (*integrate.Resolver, error) {
	m, err := c.Model(model)
	if err != nil {
		return nil, err
	}
	return &integrate.Resolver{Model: m, Threshold: threshold, CompareCols: compareCols, BlockCol: blockCol}, nil
}

// RunExperiment regenerates one paper table or figure by ID ("table1",
// "table2", "table3", "fig1" ... "fig7"), or one of this repository's own
// ablation studies ("ab-index", "ab-cache-policy", "ab-cache-threshold",
// "ab-hybrid", "ab-dp"). The context bounds the whole experiment:
// canceling it aborts the run at the next model call or sweep cell.
func RunExperiment(ctx context.Context, id string) (Report, error) {
	if r, ok := exper.Registry()[id]; ok {
		return r(ctx)
	}
	if r, ok := exper.ExtRegistry()[id]; ok {
		return r(ctx)
	}
	known := append(exper.IDs(), exper.ExtIDs()...)
	sort.Strings(known)
	return Report{}, fmt.Errorf("llmdm: unknown experiment %q (known: %s)", id, strings.Join(known, ", "))
}

// ExperimentIDs lists the paper-artifact experiment IDs in presentation
// order.
func ExperimentIDs() []string { return exper.IDs() }

// AblationIDs lists the design-choice ablation experiment IDs.
func AblationIDs() []string { return exper.ExtIDs() }

// StageResult is one pipeline stage's outcome.
type StageResult struct {
	Stage  string
	Metric string
	Value  string
}

// Pipeline runs the paper's Figure 1 flow — generation → transformation →
// integration → exploration — on the built-in scenario and returns one
// quality metric per stage. It is the quickest way to see every subsystem
// work together. Canceling ctx aborts the pipeline mid-stage.
func (c *Client) Pipeline(ctx context.Context) ([]StageResult, error) {
	rep, err := exper.Fig1Pipeline(ctx)
	if err != nil {
		return nil, err
	}
	out := make([]StageResult, len(rep.Rows))
	for i, row := range rep.Rows {
		out[i] = StageResult{Stage: row[0], Metric: row[2], Value: row[3]}
	}
	return out, nil
}

// ConcertDB returns the Spider-style concert/stadium demo database.
func ConcertDB(seed int64) *DB { return workload.ConcertDB(seed) }

// DemoKnowledgeBase returns the entity knowledge base behind the QA and
// exploration demos.
func DemoKnowledgeBase(seed int64) *workload.KnowledgeBase { return workload.GenKB(seed) }

package obs

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultTenant is the identity attributed to requests that carry no
// explicit tenant — anonymous traffic is still accounted, just in one
// shared bucket.
const DefaultTenant = "anon"

// DefaultTenantCapacity is how many tenants get a row of their own when
// TenantConfig.Capacity is zero.
const DefaultTenantCapacity = 1024

// OverflowTenant names the one row that every tenant first seen after the
// accountant's capacity is full shares. A tenant that calls itself this
// shares the row too.
const OverflowTenant = "(overflow)"

// MaxTenantLen caps tenant identifiers; the serving front door rejects
// longer ones so a hostile header cannot bloat the accountant or the
// event log.
const MaxTenantLen = 128

// tenantKey carries the request's tenant identity through a context.
type tenantKey struct{}

// WithTenant returns ctx tagged with the tenant identity. The identity
// travels the whole serving path — proxy → cascade → sched → llm —
// because context values survive context.WithoutCancel, and every
// lifecycle event emitted under the context carries it as a "tenant"
// attribute.
func WithTenant(ctx context.Context, tenant string) context.Context {
	if tenant == "" {
		return ctx
	}
	return context.WithValue(ctx, tenantKey{}, tenant)
}

// TenantFrom returns the tenant tagged on ctx, defaulting to
// DefaultTenant.
func TenantFrom(ctx context.Context) string {
	if t, ok := tenantFrom(ctx); ok {
		return t
	}
	return DefaultTenant
}

// ExplicitTenant reports the tenant explicitly tagged on ctx, if any —
// for callers (like span annotation) that must not default untagged
// traffic to DefaultTenant.
func ExplicitTenant(ctx context.Context) (string, bool) {
	return tenantFrom(ctx)
}

// tenantFrom reports the explicitly-tagged tenant, distinguishing
// "unset" so event emission only annotates requests that opted in.
func tenantFrom(ctx context.Context) (string, bool) {
	if ctx == nil {
		return "", false
	}
	t, ok := ctx.Value(tenantKey{}).(string)
	return t, ok && t != ""
}

// TenantSample is one finished request's attribution record.
type TenantSample struct {
	// Latency is the request's wall-clock duration (feeds the per-tenant
	// latency distribution and p95).
	Latency time.Duration
	// CacheHit marks a request served from the semantic cache.
	CacheHit bool
	// Shed marks a request rejected by the concurrency limiter.
	Shed bool
	// Error marks a request that produced no usable answer.
	Error bool
}

// tenantEntry is one row's counters. All fields but the identity are
// atomics, so every Record and AddSpend is a read lock plus a handful of
// atomic adds.
type tenantEntry struct {
	name string

	requests, cacheHits, escalations, shed, errors, spendMicro atomic.Int64
	latency                                                    []atomic.Int64 // per-bucket counts over LatencyBuckets, +Inf last
}

func newTenantEntry(name string) *tenantEntry {
	return &tenantEntry{name: name, latency: make([]atomic.Int64, len(LatencyBuckets)+1)}
}

func (e *tenantEntry) observeLatency(d time.Duration) {
	v := d.Seconds()
	i := sort.SearchFloat64s(LatencyBuckets, v)
	e.latency[i].Add(1)
}

// TenantConfig parameterizes a TenantAccountant.
type TenantConfig struct {
	// Capacity is how many tenants get a row of their own: the first
	// Capacity tenants seen. Every later one is accounted to the shared
	// OverflowTenant row, so memory stays O(Capacity) at any number of
	// tenant IDs and every counter still sums over the rows to the
	// proxy's own total. Defaults to DefaultTenantCapacity.
	Capacity int
	// Obs receives the aggregate tenant_requests_total counter and the
	// tenant_tracked gauge (named rows).
	// Per-tenant numbers deliberately never become metric labels — the
	// accountant, not the registry, bounds that cardinality.
	Obs *Registry
}

// TenantAccountant aggregates per-tenant usage — requests, cache hits,
// escalations, sheds, spend and latency — in at most Capacity named rows
// plus the OverflowTenant row. It is the attribution layer consulted by
// /v1/tenants and the per-tenant alert conditions, and the prerequisite
// for hashing or quota'ing requests by tenant. TenantAccountant is safe
// for concurrent use.
type TenantAccountant struct {
	capacity int

	mu sync.RWMutex
	// tenants holds the named rows and, under OverflowTenant, the
	// overflow row: Capacity+1 entries once full, and never fewer after.
	tenants  map[string]*tenantEntry
	overflow *tenantEntry

	mRequests *Counter
	gTracked  *Gauge
}

// NewTenantAccountant builds an accountant from cfg.
func NewTenantAccountant(cfg TenantConfig) *TenantAccountant {
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultTenantCapacity
	}
	overflow := newTenantEntry(OverflowTenant)
	tenants := make(map[string]*tenantEntry, cfg.Capacity+1)
	tenants[OverflowTenant] = overflow
	return &TenantAccountant{
		capacity:  cfg.Capacity,
		tenants:   tenants,
		overflow:  overflow,
		mRequests: cfg.Obs.Counter("tenant_requests_total"),
		gTracked:  cfg.Obs.Gauge("tenant_tracked"),
	}
}

// entry returns the tenant's row, admitting it on first sight while a
// named row is free and resolving it to the overflow row once none is.
// Only an admission takes the write lock.
func (a *TenantAccountant) entry(tenant string) *tenantEntry {
	a.mu.RLock()
	e := a.tenants[tenant]
	full := len(a.tenants) > a.capacity
	a.mu.RUnlock()
	if e != nil {
		return e
	}
	if full {
		return a.overflow
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if e = a.tenants[tenant]; e != nil {
		return e
	}
	if len(a.tenants) > a.capacity {
		return a.overflow
	}
	e = newTenantEntry(tenant)
	a.tenants[tenant] = e
	a.gTracked.Set(float64(len(a.tenants) - 1))
	return e
}

// Record attributes one finished request to tenant.
func (a *TenantAccountant) Record(tenant string, s TenantSample) {
	if a == nil {
		return
	}
	if tenant == "" {
		tenant = DefaultTenant
	}
	e := a.entry(tenant)
	e.requests.Add(1)
	a.mRequests.Inc()
	if s.CacheHit {
		e.cacheHits.Add(1)
	}
	if s.Shed {
		e.shed.Add(1)
	}
	if s.Error {
		e.errors.Add(1)
	}
	e.observeLatency(s.Latency)
}

// AddSpend attributes cost (micro-dollars) and escalations to tenant.
// It is called once per upstream cascade run — by the proxy's detached
// upstream goroutine, success or failure — so the sum across tenants
// stays meter-exact with the proxy's global spend counter even when
// coalesced waiters share one run.
func (a *TenantAccountant) AddSpend(tenant string, microUSD int64, escalations int) {
	if a == nil {
		return
	}
	if tenant == "" {
		tenant = DefaultTenant
	}
	e := a.entry(tenant)
	if microUSD > 0 {
		e.spendMicro.Add(microUSD)
	}
	if escalations > 0 {
		e.escalations.Add(int64(escalations))
	}
}

// ReadSpend sets into[row] to every row's attributed spend in
// micro-dollars, the OverflowTenant row included. It reads one counter a
// row under the read lock and allocates nothing once into holds every
// row, so an alert can read it on each evaluation. A nil accountant reads
// nothing.
func (a *TenantAccountant) ReadSpend(into map[string]int64) {
	if a == nil {
		return
	}
	a.mu.RLock()
	defer a.mu.RUnlock()
	for name, e := range a.tenants {
		into[name] = e.spendMicro.Load()
	}
}

// TenantStat is one row's attribution scorecard, JSON-ready for
// /v1/tenants. The OverflowTenant row sums every tenant without a row of
// its own.
type TenantStat struct {
	Tenant        string  `json:"tenant"`
	Requests      int64   `json:"requests"`
	CacheHits     int64   `json:"cache_hits"`
	Escalations   int64   `json:"escalations"`
	Shed          int64   `json:"shed"`
	Errors        int64   `json:"errors"`
	SpendMicroUSD int64   `json:"spend_micro_usd"`
	P50MS         float64 `json:"p50_ms"`
	P95MS         float64 `json:"p95_ms"`
}

// TenantSnapshot is the accountant's JSON envelope.
type TenantSnapshot struct {
	Capacity int `json:"capacity"`
	// Tracked is the number of named rows, at most Capacity.
	Tracked int `json:"tracked"`
	// Tenants is sorted by spend (then requests, then name) descending —
	// the heaviest spenders first. The OverflowTenant row is listed once
	// it has traffic.
	Tenants []TenantStat `json:"tenants"`
}

// Snapshot captures up to topN rows (0 = all), heaviest spenders first.
func (a *TenantAccountant) Snapshot(topN int) TenantSnapshot {
	if a == nil {
		return TenantSnapshot{Tenants: []TenantStat{}}
	}
	a.mu.RLock()
	entries := make([]*tenantEntry, 0, len(a.tenants))
	for _, e := range a.tenants {
		if e != a.overflow || e.requests.Load() != 0 || e.spendMicro.Load() != 0 || e.escalations.Load() != 0 {
			entries = append(entries, e)
		}
	}
	tracked := len(a.tenants) - 1
	a.mu.RUnlock()

	stats := make([]TenantStat, len(entries))
	for i, e := range entries {
		st := TenantStat{
			Tenant:        e.name,
			Requests:      e.requests.Load(),
			CacheHits:     e.cacheHits.Load(),
			Escalations:   e.escalations.Load(),
			Shed:          e.shed.Load(),
			Errors:        e.errors.Load(),
			SpendMicroUSD: e.spendMicro.Load(),
		}
		cum := make([]int64, len(e.latency))
		var total int64
		for j := range e.latency {
			total += e.latency[j].Load()
			cum[j] = total
		}
		if total > 0 {
			st.P50MS = quantileFromCum(LatencyBuckets, cum, 0.50) * 1000
			st.P95MS = quantileFromCum(LatencyBuckets, cum, 0.95) * 1000
		}
		stats[i] = st
	}
	sort.Slice(stats, func(i, j int) bool {
		if stats[i].SpendMicroUSD != stats[j].SpendMicroUSD {
			return stats[i].SpendMicroUSD > stats[j].SpendMicroUSD
		}
		if stats[i].Requests != stats[j].Requests {
			return stats[i].Requests > stats[j].Requests
		}
		return stats[i].Tenant < stats[j].Tenant
	})
	if topN > 0 && len(stats) > topN {
		stats = stats[:topN]
	}
	return TenantSnapshot{
		Capacity: a.capacity,
		Tracked:  tracked,
		Tenants:  stats,
	}
}

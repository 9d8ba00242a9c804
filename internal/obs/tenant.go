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

// DefaultTenantCapacity bounds the accountant's heavy-hitter table when
// TenantConfig.Capacity is zero.
const DefaultTenantCapacity = 1024

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

// tenantEntry is one tracked tenant's counters. All fields but the
// identity are atomics, so the accountant's fast path is a read lock
// plus a handful of atomic adds.
type tenantEntry struct {
	name string
	// floor is the space-saving overcount bound inherited from the entry
	// this one evicted: the tenant's true request count is at most
	// requests and at least requests − floor.
	floor int64

	requests, cacheHits, escalations, shed, errors, spendMicro atomic.Int64
	latency                                                    []atomic.Int64 // per-bucket counts over LatencyBuckets, +Inf last
}

func (e *tenantEntry) observeLatency(d time.Duration) {
	v := d.Seconds()
	i := sort.SearchFloat64s(LatencyBuckets, v)
	e.latency[i].Add(1)
}

// TenantConfig parameterizes a TenantAccountant.
type TenantConfig struct {
	// Capacity bounds the number of tenants tracked individually. Beyond
	// it the accountant behaves as a space-saving heavy-hitter sketch:
	// a new tenant evicts the currently smallest one and inherits its
	// request count as an overcount floor, so the top spenders stay
	// accurate while memory stays O(Capacity) at millions of tenant IDs.
	// Defaults to DefaultTenantCapacity.
	Capacity int
	// Obs receives the aggregate tenant_requests_total /
	// tenant_evictions_total counters and the tenant_tracked gauge.
	// Per-tenant numbers deliberately never become metric labels — the
	// accountant, not the registry, bounds that cardinality.
	Obs *Registry
}

// TenantAccountant aggregates per-tenant usage — requests, cache hits,
// escalations, sheds, spend and latency — behind a bounded space-saving
// table. It is the attribution layer consulted by /v1/tenants and the
// per-tenant alert conditions, and the prerequisite for hashing or
// quota'ing requests by tenant. TenantAccountant is safe for concurrent
// use.
type TenantAccountant struct {
	capacity int

	mu      sync.RWMutex
	tenants map[string]*tenantEntry
	evicted atomic.Int64

	mRequests  *Counter
	mEvictions *Counter
	gTracked   *Gauge
}

// NewTenantAccountant builds an accountant from cfg.
func NewTenantAccountant(cfg TenantConfig) *TenantAccountant {
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultTenantCapacity
	}
	return &TenantAccountant{
		capacity:   cfg.Capacity,
		tenants:    make(map[string]*tenantEntry, cfg.Capacity),
		mRequests:  cfg.Obs.Counter("tenant_requests_total"),
		mEvictions: cfg.Obs.Counter("tenant_evictions_total"),
		gTracked:   cfg.Obs.Gauge("tenant_tracked"),
	}
}

// Capacity returns the heavy-hitter table bound.
func (a *TenantAccountant) Capacity() int {
	if a == nil {
		return 0
	}
	return a.capacity
}

// entry returns the tenant's counters, admitting (and possibly
// evicting) on first sight. The existing-tenant path takes only the
// read lock.
func (a *TenantAccountant) entry(tenant string) *tenantEntry {
	a.mu.RLock()
	e := a.tenants[tenant]
	a.mu.RUnlock()
	if e != nil {
		return e
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if e = a.tenants[tenant]; e != nil {
		return e
	}
	e = &tenantEntry{name: tenant, latency: make([]atomic.Int64, len(LatencyBuckets)+1)}
	if len(a.tenants) >= a.capacity {
		// Space-saving replacement: evict the smallest tracked tenant and
		// let the newcomer inherit its count as an overcount floor.
		var victim *tenantEntry
		for _, cand := range a.tenants {
			if victim == nil || cand.requests.Load() < victim.requests.Load() {
				victim = cand
			}
		}
		delete(a.tenants, victim.name)
		e.floor = victim.requests.Load()
		e.requests.Store(e.floor)
		a.evicted.Add(1)
		a.mEvictions.Inc()
	}
	a.tenants[tenant] = e
	a.gTracked.Set(float64(len(a.tenants)))
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

// Spend reports the spend attributed to tenant so far; ok is false for
// tenants not currently tracked.
func (a *TenantAccountant) Spend(tenant string) (microUSD int64, ok bool) {
	if a == nil {
		return 0, false
	}
	a.mu.RLock()
	e := a.tenants[tenant]
	a.mu.RUnlock()
	if e == nil {
		return 0, false
	}
	return e.spendMicro.Load(), true
}

// TenantStat is one tenant's attribution scorecard, JSON-ready for
// /v1/tenants.
type TenantStat struct {
	Tenant   string `json:"tenant"`
	Requests int64  `json:"requests"`
	// RequestsFloor, when nonzero, is the space-saving overcount bound:
	// the true request count is at least requests − requests_floor.
	RequestsFloor int64   `json:"requests_floor,omitempty"`
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
	Capacity int   `json:"capacity"`
	Tracked  int   `json:"tracked"`
	Evicted  int64 `json:"evicted"`
	// Tenants is sorted by spend (then requests, then name) descending —
	// the heavy hitters first.
	Tenants []TenantStat `json:"tenants"`
}

// Snapshot captures up to topN tenants (0 = all tracked), heaviest
// spenders first.
func (a *TenantAccountant) Snapshot(topN int) TenantSnapshot {
	if a == nil {
		return TenantSnapshot{Tenants: []TenantStat{}}
	}
	a.mu.RLock()
	entries := make([]*tenantEntry, 0, len(a.tenants))
	for _, e := range a.tenants {
		entries = append(entries, e)
	}
	a.mu.RUnlock()

	stats := make([]TenantStat, len(entries))
	for i, e := range entries {
		st := TenantStat{
			Tenant:        e.name,
			Requests:      e.requests.Load(),
			RequestsFloor: e.floor,
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
		Tracked:  len(entries),
		Evicted:  a.evicted.Load(),
		Tenants:  stats,
	}
}

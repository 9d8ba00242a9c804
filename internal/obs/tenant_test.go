package obs

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestTenantContextRoundTrip(t *testing.T) {
	ctx := context.Background()
	if got := TenantFrom(ctx); got != DefaultTenant {
		t.Fatalf("untagged ctx tenant = %q, want %q", got, DefaultTenant)
	}
	if _, ok := tenantFrom(ctx); ok {
		t.Fatal("untagged ctx reported an explicit tenant")
	}
	ctx = WithTenant(ctx, "acme")
	if got := TenantFrom(ctx); got != "acme" {
		t.Fatalf("tenant = %q, want acme", got)
	}
	// The identity must survive detachment — the proxy's upstream
	// goroutine attributes spend after WithoutCancel.
	detached := context.WithoutCancel(ctx)
	if got := TenantFrom(detached); got != "acme" {
		t.Fatalf("tenant after WithoutCancel = %q, want acme", got)
	}
	// Empty tenant is a no-op tag.
	if got := TenantFrom(WithTenant(context.Background(), "")); got != DefaultTenant {
		t.Fatalf("empty tag tenant = %q, want %q", got, DefaultTenant)
	}
}

func TestTenantAccountantRecordAndSpend(t *testing.T) {
	reg := NewRegistry()
	a := NewTenantAccountant(TenantConfig{Capacity: 8, Obs: reg})

	for i := 0; i < 5; i++ {
		a.Record("acme", TenantSample{Latency: 2 * time.Millisecond, CacheHit: i > 0})
	}
	a.AddSpend("acme", 1200, 0)
	a.Record("umbrella", TenantSample{Latency: 50 * time.Millisecond})
	a.AddSpend("umbrella", 9000, 2)
	a.Record("", TenantSample{Latency: time.Millisecond, Shed: true, Error: true})

	snap := a.Snapshot(0)
	if snap.Tracked != 3 || len(snap.Tenants) != 3 || snap.Capacity != 8 {
		t.Fatalf("snapshot meta = %+v", snap)
	}
	// Sorted by spend descending: umbrella, acme, anon.
	if snap.Tenants[0].Tenant != "umbrella" || snap.Tenants[1].Tenant != "acme" || snap.Tenants[2].Tenant != DefaultTenant {
		t.Fatalf("order = %v", snap.Tenants)
	}
	u := snap.Tenants[0]
	if u.Requests != 1 || u.Escalations != 2 || u.SpendMicroUSD != 9000 {
		t.Fatalf("umbrella stat = %+v", u)
	}
	if u.P95MS <= 0 {
		t.Fatalf("umbrella p95 = %g, want > 0", u.P95MS)
	}
	ac := snap.Tenants[1]
	if ac.Requests != 5 || ac.CacheHits != 4 || ac.SpendMicroUSD != 1200 {
		t.Fatalf("acme stat = %+v", ac)
	}
	an := snap.Tenants[2]
	if an.Shed != 1 || an.Errors != 1 {
		t.Fatalf("anon stat = %+v", an)
	}
	if got := reg.Counter("tenant_requests_total").Value(); got != 7 {
		t.Fatalf("tenant_requests_total = %d, want 7", got)
	}

	// topN truncation keeps the heavy hitters.
	top := a.Snapshot(1)
	if len(top.Tenants) != 1 || top.Tenants[0].Tenant != "umbrella" {
		t.Fatalf("top-1 = %v", top.Tenants)
	}

	// Nil accountant is inert everywhere.
	var nilA *TenantAccountant
	nilA.Record("x", TenantSample{})
	nilA.AddSpend("x", 1, 1)
	if s := nilA.Snapshot(0); s.Tenants == nil || len(s.Tenants) != 0 {
		t.Fatalf("nil accountant snapshot = %+v", s)
	}
}

func TestTenantAccountantOverflowRow(t *testing.T) {
	reg := NewRegistry()
	a := NewTenantAccountant(TenantConfig{Capacity: 4, Obs: reg})
	if snap := a.Snapshot(0); snap.Tracked != 0 || len(snap.Tenants) != 0 {
		t.Fatalf("empty accountant lists %+v, want no rows: the overflow row shows only with traffic", snap)
	}

	// Ten tenants spend 100 µ$ each: the first four get rows, the other
	// six share the overflow row, and nothing is dropped.
	for i := 0; i < 10; i++ {
		tenant := fmt.Sprintf("t%d", i)
		a.Record(tenant, TenantSample{Latency: time.Millisecond, CacheHit: i%2 == 0})
		a.AddSpend(tenant, 100, 1)
	}
	// A tenant that names itself the overflow row shares it.
	a.Record(OverflowTenant, TenantSample{Error: true})

	snap := a.Snapshot(0)
	if snap.Capacity != 4 || snap.Tracked != 4 || len(snap.Tenants) != 5 {
		t.Fatalf("snapshot = %+v, want 4 named rows plus the overflow row", snap)
	}
	over := snap.Tenants[0]
	if over.Tenant != OverflowTenant || over.Requests != 7 || over.SpendMicroUSD != 600 ||
		over.Escalations != 6 || over.CacheHits != 3 || over.Errors != 1 || over.P50MS <= 0 {
		t.Fatalf("overflow row = %+v, want 7 requests, 600 µ$, 6 escalations, 3 hits, 1 error", over)
	}
	for i, st := range snap.Tenants[1:] {
		if want := fmt.Sprintf("t%d", i); st.Tenant != want || st.Requests != 1 || st.SpendMicroUSD != 100 {
			t.Fatalf("row %d = %+v, want %s with 1 request and 100 µ$", i+1, st, want)
		}
	}
	var spend, requests int64
	for _, st := range snap.Tenants {
		spend += st.SpendMicroUSD
		requests += st.Requests
	}
	if spend != 1000 || requests != 11 {
		t.Fatalf("rows sum to %d µ$ over %d requests, want 1000 over 11", spend, requests)
	}
	if got := reg.Counter("tenant_requests_total").Value(); got != 11 {
		t.Fatalf("tenant_requests_total = %d, want 11", got)
	}
	if got := reg.Gauge("tenant_tracked").Value(); got != 4 {
		t.Fatalf("tenant_tracked = %g, want 4", got)
	}
	// A named tenant keeps its row after the table filled.
	a.AddSpend("t2", 5, 0)
	if got := a.Snapshot(0).Tenants; got[1].Tenant != "t2" || got[1].SpendMicroUSD != 105 {
		t.Fatalf("t2 after the table filled = %+v", got[1])
	}
}

// A tenant first seen past capacity resolves under the read lock and
// allocates nothing, so a flood of new tenant IDs costs what known ones do.
func TestTenantPastCapacityAllocatesNothing(t *testing.T) {
	a := NewTenantAccountant(TenantConfig{Capacity: 4, Obs: NewRegistry()})
	for i := 0; i < 4; i++ {
		a.Record(fmt.Sprintf("t%d", i), TenantSample{})
	}
	names := make([]string, 64)
	for i := range names {
		names[i] = fmt.Sprintf("new-%d", i)
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		a.Record(names[i%len(names)], TenantSample{Latency: time.Millisecond})
		a.AddSpend(names[i%len(names)], 7, 1)
		i++
	})
	if allocs != 0 {
		t.Fatalf("Record+AddSpend of a tenant past capacity = %g allocs, want 0", allocs)
	}
	if snap := a.Snapshot(0); snap.Tracked != 4 || snap.Tenants[0].Tenant != OverflowTenant {
		t.Fatalf("snapshot = %+v, want the overflow row on top", snap)
	}
}

// ReadSpend reads every row's spend, the overflow row included, into the
// caller's map, and allocates nothing once the map holds every row.
func TestTenantReadSpend(t *testing.T) {
	var none *TenantAccountant
	into := map[string]int64{}
	none.ReadSpend(into)
	if len(into) != 0 {
		t.Fatalf("a nil accountant read %v, want nothing", into)
	}

	a := NewTenantAccountant(TenantConfig{Capacity: 2, Obs: NewRegistry()})
	for i := 0; i < 5; i++ {
		a.AddSpend(fmt.Sprintf("t%d", i), int64(100*(i+1)), 0)
	}
	a.ReadSpend(into)
	want := map[string]int64{"t0": 100, "t1": 200, OverflowTenant: 300 + 400 + 500}
	if len(into) != len(want) {
		t.Fatalf("read %v, want %v", into, want)
	}
	for k, v := range want {
		if into[k] != v {
			t.Fatalf("read %v, want %v", into, want)
		}
	}

	full := NewTenantAccountant(TenantConfig{Obs: NewRegistry()})
	for i := 0; i <= DefaultTenantCapacity; i++ {
		full.AddSpend(fmt.Sprintf("t%d", i), 1, 0)
	}
	into = map[string]int64{}
	full.ReadSpend(into)
	if len(into) != DefaultTenantCapacity+1 {
		t.Fatalf("a full table read %d rows, want %d", len(into), DefaultTenantCapacity+1)
	}
	if allocs := testing.AllocsPerRun(20, func() { full.ReadSpend(into) }); allocs != 0 {
		t.Fatalf("ReadSpend of a full table = %g allocs, want 0", allocs)
	}
}

// Goroutines race new tenants across the capacity edge: exactly Capacity
// get rows, and every counter still sums to what was recorded.
func TestTenantAccountantConcurrent(t *testing.T) {
	const goroutines, perG, tenants, capacity = 8, 200, 12, 4
	reg := NewRegistry()
	a := NewTenantAccountant(TenantConfig{Capacity: capacity, Obs: reg})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				tenant := fmt.Sprintf("t%d", (g+i)%tenants) // more tenants than capacity
				a.Record(tenant, TenantSample{Latency: time.Millisecond, CacheHit: i%3 == 0})
				a.AddSpend(tenant, 3, 1)
				if i%50 == 0 {
					a.Snapshot(2)
				}
			}
		}(g)
	}
	wg.Wait()
	snap := a.Snapshot(0)
	if snap.Tracked != capacity || len(snap.Tenants) != capacity+1 {
		t.Fatalf("tracked = %d over %d rows, want capacity %d plus the overflow row", snap.Tracked, len(snap.Tenants), capacity)
	}
	var requests, hits, spend, escalations int64
	for _, st := range snap.Tenants {
		requests += st.Requests
		hits += st.CacheHits
		spend += st.SpendMicroUSD
		escalations += st.Escalations
	}
	const n = goroutines * perG
	if requests != n || spend != 3*n || escalations != n || hits != goroutines*((perG+2)/3) {
		t.Fatalf("rows sum to %d requests, %d hits, %d µ$, %d escalations; want %d, %d, %d, %d",
			requests, hits, spend, escalations, n, goroutines*((perG+2)/3), 3*n, n)
	}
	if got := reg.Counter("tenant_requests_total").Value(); got != n {
		t.Fatalf("tenant_requests_total = %d, want %d", got, n)
	}
}

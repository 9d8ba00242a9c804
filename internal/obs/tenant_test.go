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
	if snap.Tracked != 3 || snap.Evicted != 0 || snap.Capacity != 8 {
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

func TestTenantAccountantSpaceSavingEviction(t *testing.T) {
	reg := NewRegistry()
	a := NewTenantAccountant(TenantConfig{Capacity: 2, Obs: reg})
	for i := 0; i < 10; i++ {
		a.Record("whale", TenantSample{})
	}
	a.Record("minnow", TenantSample{})

	// A third tenant evicts the smallest (minnow, 1 request) and
	// inherits its count as an overcount floor.
	a.Record("newcomer", TenantSample{})
	snap := a.Snapshot(0)
	if snap.Tracked != 2 || snap.Evicted != 1 {
		t.Fatalf("after eviction: %+v", snap)
	}
	var nc *TenantStat
	whale := false
	for i := range snap.Tenants {
		switch snap.Tenants[i].Tenant {
		case "newcomer":
			nc = &snap.Tenants[i]
		case "minnow":
			t.Fatal("minnow survived eviction")
		case "whale":
			whale = true
		}
	}
	if nc == nil {
		t.Fatal("newcomer not tracked")
	}
	if nc.Requests != 2 || nc.RequestsFloor != 1 {
		t.Fatalf("newcomer = %+v, want requests 2 floor 1", nc)
	}
	// The whale was never at risk.
	if !whale {
		t.Fatal("whale evicted")
	}
	if got := reg.Counter("tenant_evictions_total").Value(); got != 1 {
		t.Fatalf("tenant_evictions_total = %d, want 1", got)
	}
	if got := reg.Gauge("tenant_tracked").Value(); got != 2 {
		t.Fatalf("tenant_tracked = %g, want 2", got)
	}
}

func TestTenantAccountantConcurrent(t *testing.T) {
	a := NewTenantAccountant(TenantConfig{Capacity: 4, Obs: NewRegistry()})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tenant := fmt.Sprintf("t%d", (g+i)%6) // more tenants than capacity
				a.Record(tenant, TenantSample{Latency: time.Millisecond})
				a.AddSpend(tenant, 3, 0)
			}
		}(g)
	}
	wg.Wait()
	snap := a.Snapshot(0)
	if snap.Tracked != 4 {
		t.Fatalf("tracked = %d, want capacity 4", snap.Tracked)
	}
	var spend int64
	for _, st := range snap.Tenants {
		spend += st.SpendMicroUSD
	}
	if spend <= 0 {
		t.Fatal("no spend attributed")
	}
}

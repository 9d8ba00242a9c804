package proxy

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/llm"
	"repro/internal/obs"
)

// unkeptProxy is newTestProxy with a zero head-sampling budget: open keeps
// no trace, so the ring holds only what finish promotes.
func unkeptProxy(cfg Config) *Proxy {
	p := newTestProxy(cfg)
	p.keep = obs.NewBudget(0)
	return p
}

// slowScenario is a cascade request in a class whose latency target no
// request meets.
func slowScenario(build func(Config) *Proxy) readScenario {
	return readScenario{"slow", "proxy_complete", nil, func(t *testing.T, reg *obs.Registry, streamed bool) (*Proxy, Answer, error) {
		tight := obs.SLOObjective{LatencyTarget: time.Nanosecond}
		p := build(Config{Obs: reg, SLO: obs.SLOConfig{Objectives: map[string]obs.SLOObjective{"batch": tight, "streaming": tight}}})
		ans, err := probe(p, context.Background(), llm.Request{Prompt: "which stadium held the most concerts", Gold: "the old one", Difficulty: 0.05}, streamed)
		return p, ans, err
	}}
}

// exactView is what head sampling must not change in a registry: every
// series but the sampled ones (log_events_total counts only recorded
// events; obs_* count the sampling itself), histograms by count, since
// their sums are wall time.
func exactView(reg *obs.Registry) obs.Snapshot {
	view := make(obs.Snapshot)
	for k, v := range reg.Snapshot() {
		name, _, _ := strings.Cut(k, "{")
		if strings.HasPrefix(name, "log_events_total") || strings.HasPrefix(name, "obs_") || strings.HasSuffix(name, "_sum") {
			continue
		}
		view[k] = v
	}
	return view
}

// tenantView is the tenant table without its latency quantiles.
func tenantView(p *Proxy) []obs.TenantStat {
	rows := p.Tenants().Snapshot(0).Tenants
	for i := range rows {
		rows[i].P50MS, rows[i].P95MS = 0, 0
	}
	return rows
}

// checkExemplarsResolve fails when an exemplar in reg names a trace p's
// ring was never given.
func checkExemplarsResolve(t *testing.T, p *Proxy, reg *obs.Registry) {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var families map[string]struct {
		Points []struct {
			Hist *struct {
				Exemplars map[string]obs.Exemplar `json:"exemplars"`
			} `json:"histogram"`
		} `json:"points"`
	}
	if err := json.Unmarshal(buf.Bytes(), &families); err != nil {
		t.Fatal(err)
	}
	for name, f := range families {
		for _, pt := range f.Points {
			if pt.Hist == nil {
				continue
			}
			for le, ex := range pt.Hist.Exemplars {
				if _, ok := p.Tracer().ByID(ex.Trace); !ok {
					t.Errorf("%s{le=%s} exemplar names trace %q, which is not in the ring", name, le, ex.Trace)
				}
			}
		}
	}
}

// Under a zero budget every outcome of the read-mode matrix, plus a slow
// request, leaves exactly the metrics, SLO and tenant records the
// fully-sampled proxy leaves. Shed, error, stale and slow requests are
// promoted: one childless root and one terminal event each. Cache,
// cascade, coalesced and canceled requests leave nothing else, though
// their replies still carry a trace ID.
func TestZeroBudgetKeepsWhatMustBeKept(t *testing.T) {
	full := append(readScenarios(newTestProxy), slowScenario(newTestProxy))
	zero := append(readScenarios(unkeptProxy), slowScenario(unkeptProxy))
	promoted := map[string]bool{"stale": true, "error": true, "shed": true, "slow": true}
	for i, sc := range zero {
		t.Run(sc.outcome, func(t *testing.T) {
			for _, streamed := range []bool{false, true} {
				fullReg, zeroReg := obs.NewRegistry(), obs.NewRegistry()
				pf, _, errF := full[i].run(t, fullReg, streamed)
				pz, ans, err := sc.run(t, zeroReg, streamed)
				if !errors.Is(err, sc.wantErr) || !errors.Is(errF, sc.wantErr) {
					t.Fatalf("%s: the probe returned %v (fully sampled: %v), want %v", readMode(streamed), err, errF, sc.wantErr)
				}
				// A stream shed at admission has no answer to ask.
				if ans.Trace == "" && !(streamed && sc.outcome == "shed") {
					t.Errorf("%s: the answer carries no trace ID", readMode(streamed))
				}
				if promoted[sc.outcome] {
					st := readStory(t, pz, zeroReg, streamed, ans)
					if st.terminal.Name != sc.terminal || len(st.root.Children) != 0 {
						t.Errorf("%s: terminal %s, root with %d children; want %s and a childless root",
							readMode(streamed), st.terminal.Name, len(st.root.Children), sc.terminal)
					}
					if got := zeroReg.Snapshot()[`obs_traces_total{decision="promoted"}`]; got < 1 {
						t.Errorf("obs_traces_total{decision=promoted} = %v, want the probe counted", got)
					}
				} else {
					if evs := pz.Events().Events(obs.EventFilter{Tenant: probeTenant}); len(evs) != 0 {
						t.Errorf("%s: an unkept request left %d events, first %s", readMode(streamed), len(evs), evs[0].Name)
					}
					if _, ok := pz.Tracer().ByID(ans.Trace); ok {
						t.Errorf("%s: an unkept request left a root", readMode(streamed))
					}
				}
				if got, want := zeroReg.Snapshot()[`obs_traces_total{decision="kept"}`], 0.0; got != want {
					t.Errorf("obs_traces_total{decision=kept} = %v under a zero budget", got)
				}
				if got, want := exactView(zeroReg), exactView(fullReg); !reflect.DeepEqual(got, want) {
					for k := range want {
						if got[k] != want[k] {
							t.Errorf("%s: %s = %v, fully sampled %v", readMode(streamed), k, got[k], want[k])
						}
					}
					for k := range got {
						if _, ok := want[k]; !ok {
							t.Errorf("%s: %s = %v, absent when fully sampled", readMode(streamed), k, got[k])
						}
					}
				}
				if got, want := tenantView(pz), tenantView(pf); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: tenants %+v, fully sampled %+v", readMode(streamed), got, want)
				}
				checkExemplarsResolve(t, pz, zeroReg)
				checkExemplarsResolve(t, pf, fullReg)
			}
		})
	}
}

// The sampling decision and the event ring's losses are metrics:
// obs_traces_total{decision} sums to the requests, and
// obs_events_overwritten_total is what the ring reports.
func TestSamplingAndOverwritesAreMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	p := newTestProxy(Config{Obs: reg, Tracer: obs.NewTracer(2), Events: obs.NewEventLog(4)})
	req := llm.Request{Prompt: "how many concerts were held in the stadium this year", Gold: "twelve", Difficulty: 0.05}
	for i := 0; i < 5; i++ {
		if _, err := p.Complete(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	// The two-trace ring keeps two a second, in bursts of two: the first
	// two requests, and the rest unless the five took over half a second.
	if kept, unkept := snap[`obs_traces_total{decision="kept"}`], snap[`obs_traces_total{decision="unkept"}`]; kept < 2 || unkept == 0 || kept+unkept != 5 {
		t.Errorf("obs_traces_total kept %v, unkept %v; want 2 (or a few more) of 5", kept, unkept)
	}
	if got, want := snap["obs_events_overwritten_total"], float64(p.Events().Overwritten()); got != want || want == 0 {
		t.Errorf("obs_events_overwritten_total = %v, the ring reports %v overwritten (want > 0)", got, want)
	}
	if p.Tracer().Len() != 2 {
		t.Errorf("the ring holds %d traces, want 2", p.Tracer().Len())
	}
}

// An unkept request pays for no telemetry but its root and trace ID: of a
// cache hit's four allocations, three are the root span, its context node
// and the trace ID, and one is the cache lookup's; a cascade request adds
// the call, its reader, the detached upstream and the run, none of them
// telemetry. A cascade request reads 19, and 20 in some runs under the
// race detector.
func TestUnkeptRequestAllocs(t *testing.T) {
	req := llm.Request{Prompt: "how many concerts were held in the stadium this year", Gold: "twelve", Difficulty: 0.05}
	for _, tc := range []struct {
		name string
		cfg  Config
		max  float64
	}{
		{"cache_hit", Config{Obs: obs.NewRegistry()}, 4},
		{"cascade", Config{Obs: obs.NewRegistry(), DisableCache: true}, 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := unkeptProxy(tc.cfg)
			if _, err := p.Complete(context.Background(), req); err != nil {
				t.Fatal(err)
			}
			if got := testing.AllocsPerRun(100, func() { _, _ = p.Complete(context.Background(), req) }); got > tc.max {
				t.Errorf("%s on an unkept trace: %v allocs, want <= %v", tc.name, got, tc.max)
			}
		})
	}
}

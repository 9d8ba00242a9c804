package proxy

import (
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The golden tests lock the *shape* of the observability payloads —
// every key path and its JSON type — without pinning values, which are
// timing- and load-dependent; vocabulary_test.go does the same for the
// names the stack records. Adding a field is a deliberate act: run
//
//	make golden
//
// which regenerates every golden file (these schemas, the error envelope,
// the vocabulary and llmdm-proxy's flags) through -update-golden, and
// review the diff; removing or renaming one fails the test, which is the
// point — these endpoints are scraped by dashboards and the bench
// harness, so their schemas are API.
var updateGolden = flag.Bool("update-golden", false, "rewrite the golden files under testdata/golden")

// schemaPaths flattens decoded JSON into sorted "path: type" lines.
// Arrays union the schema of all elements (heterogeneous entries — e.g.
// alert rules with and without optional fields — widen the schema rather
// than flapping on ordering).
func schemaPaths(v interface{}) []string {
	set := make(map[string]struct{})
	var walk func(prefix string, v interface{})
	walk = func(prefix string, v interface{}) {
		switch x := v.(type) {
		case map[string]interface{}:
			if len(x) == 0 {
				set[prefix+": object"] = struct{}{}
				return
			}
			for k, vv := range x {
				p := k
				if prefix != "" {
					p = prefix + "." + k
				}
				walk(p, vv)
			}
		case []interface{}:
			if len(x) == 0 {
				set[prefix+"[]"] = struct{}{}
				return
			}
			for _, vv := range x {
				walk(prefix+"[]", vv)
			}
		case string:
			set[prefix+": string"] = struct{}{}
		case float64:
			set[prefix+": number"] = struct{}{}
		case bool:
			set[prefix+": bool"] = struct{}{}
		case nil:
			set[prefix+": null"] = struct{}{}
		default:
			set[fmt.Sprintf("%s: %T", prefix, v)] = struct{}{}
		}
	}
	walk("", v)
	paths := make([]string, 0, len(set))
	for p := range set {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

func TestGoldenSchemas(t *testing.T) {
	p := telemetryProxy(Config{})
	defer p.Close()
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	// Deterministic traffic so every schema branch is populated the same
	// way on every run: one cascade miss, one cache hit, one escalation.
	postAsTenant(t, srv, "acme", map[string]interface{}{
		"prompt": "golden cache prompt", "gold": "g", "difficulty": 0.2,
	})
	postAsTenant(t, srv, "acme", map[string]interface{}{
		"prompt": "golden cache prompt", "gold": "g", "difficulty": 0.2,
	})
	postAsTenant(t, srv, "umbrella", map[string]interface{}{
		"prompt": "golden escalation prompt", "gold": "g", "difficulty": 0.9,
	})

	for _, tc := range []struct {
		name string
		path string
	}{
		{"slo", "/v1/slo"},
		{"stats", "/v1/stats"},
		{"tenants", "/v1/tenants"},
		{"alerts", "/v1/alerts"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var payload interface{}
			getJSON(t, srv, tc.path, &payload)
			got := strings.Join(schemaPaths(payload), "\n") + "\n"

			golden := filepath.Join("testdata", "golden", tc.name+".schema")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run with -update-golden): %v", err)
			}
			if got != string(want) {
				t.Errorf("GET %s schema drifted from %s\n--- got ---\n%s--- want ---\n%s",
					tc.path, golden, got, want)
			}
		})
	}
}

// TestGoldenSchemaStability re-reads /v1/stats after more traffic and
// checks the schema is a superset of the first read — fields must never
// disappear between scrapes of a live process.
func TestGoldenSchemaStability(t *testing.T) {
	p := telemetryProxy(Config{})
	defer p.Close()
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	postAsTenant(t, srv, "acme", map[string]interface{}{
		"prompt": "stability prompt", "gold": "g", "difficulty": 0.2,
	})
	var first interface{}
	getJSON(t, srv, "/v1/stats", &first)
	firstPaths := schemaPaths(first)

	postAsTenant(t, srv, "acme", map[string]interface{}{
		"prompt": "stability prompt", "gold": "g", "difficulty": 0.2,
	})
	var second interface{}
	getJSON(t, srv, "/v1/stats", &second)
	have := make(map[string]struct{})
	for _, p := range schemaPaths(second) {
		have[p] = struct{}{}
	}
	for _, p := range firstPaths {
		if _, ok := have[p]; !ok {
			t.Errorf("stats field %q disappeared between scrapes", p)
		}
	}
}

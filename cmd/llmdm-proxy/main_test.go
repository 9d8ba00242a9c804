package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestRunRejectsBadFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring of the error
	}{
		{"zero traces", []string{"-traces", "0"}, "-traces"},
		{"negative traces", []string{"-traces", "-5"}, "-traces"},
		{"zero events", []string{"-events", "0"}, "-events"},
		{"negative events", []string{"-events", "-1"}, "-events"},
		{"negative runtime interval", []string{"-runtime-interval", "-1s"}, "-runtime-interval"},
		{"zero batch max", []string{"-batch", "-batch-max", "0"}, "-batch-max"},
		{"negative batch max", []string{"-batch-max", "-3"}, "-batch-max"},
		{"threshold above one", []string{"-threshold", "1.5"}, "-threshold"},
		{"threshold negative", []string{"-threshold", "-0.1"}, "-threshold"},
		{"zero threshold", []string{"-threshold", "0"}, "-threshold must be in (0, 1]"},
		{"zero exit threshold", []string{"-exit-threshold", "0"}, "-no-early-exit"},
		{"negative cache capacity", []string{"-cache-capacity", "-1"}, "-cache-capacity"},
		{"negative max concurrent", []string{"-max-concurrent", "-2"}, "-max-concurrent"},
		{"negative max queue", []string{"-max-queue", "-2"}, "-max-queue"},
		{"zero tenants", []string{"-tenants", "0"}, "-tenants"},
		{"negative alert interval", []string{"-alert-interval", "-1s"}, "-alert-interval"},
		{"bad log level", []string{"-log-level", "loud"}, "-log-level"},
		{"unknown flag", []string{"-no-such-flag"}, "not defined"},
	}
	// A combination run wrongly accepts returns nil instead of binding a
	// port and serving forever.
	orig := listenAndServe
	defer func() { listenAndServe = orig }()
	listenAndServe = func(string, http.Handler) error { return nil }
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args, io.Discard)
			if err == nil {
				t.Fatalf("run(%v) accepted invalid flags", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%v) error %q does not mention %q", tc.args, err, tc.want)
			}
		})
	}
}

func TestRunServesWithValidFlags(t *testing.T) {
	// Swap the listener hook so run builds the full stack and "serves" it
	// without binding a port; drive one request through the handler to
	// prove the wiring is real.
	orig := listenAndServe
	defer func() { listenAndServe = orig }()

	var handler http.Handler
	listenAndServe = func(addr string, h http.Handler) error {
		handler = h
		return nil
	}
	err := run([]string{
		"-addr", "127.0.0.1:0",
		"-batch",
		"-max-concurrent", "8",
		"-tenants", "64",
		"-alert-interval", "0",
		"-runtime-interval", "0",
	}, io.Discard)
	if err != nil {
		t.Fatalf("run with valid flags: %v", err)
	}
	if handler == nil {
		t.Fatal("run never reached the serve hook")
	}

	srv := httptest.NewServer(handler)
	defer srv.Close()
	for _, path := range []string{"/healthz", "/v1/tenants", "/v1/alerts", "/v1/slo"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d, want 200", path, resp.StatusCode)
		}
	}
}

func TestRunDisablesSubsystems(t *testing.T) {
	orig := listenAndServe
	defer func() { listenAndServe = orig }()
	var handler http.Handler
	listenAndServe = func(addr string, h http.Handler) error {
		handler = h
		return nil
	}
	if err := run([]string{"-no-tenants", "-no-alerts", "-no-slo", "-runtime-interval", "0"}, io.Discard); err != nil {
		t.Fatalf("run: %v", err)
	}
	srv := httptest.NewServer(handler)
	defer srv.Close()
	for _, path := range []string{"/v1/tenants", "/v1/alerts", "/v1/slo"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404 when disabled", path, resp.StatusCode)
		}
	}
}

// The default listenAndServe returns nil on SIGTERM — which is what lets
// run unwind through its defers — well inside the grace period.
func TestListenAndServeDrainsOnSignal(t *testing.T) {
	// While this channel is registered, a SIGTERM that lands before
	// listenAndServe has installed its own handler does not kill the test
	// binary; the signal is re-sent until the server has seen one.
	guard := make(chan os.Signal, 1)
	signal.Notify(guard, syscall.SIGTERM)
	defer signal.Stop(guard)

	done := make(chan error, 1)
	go func() { done <- listenAndServe("127.0.0.1:0", http.NotFoundHandler()) }()
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	deadline := time.After(shutdownGrace)
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("listenAndServe after SIGTERM: %v, want nil", err)
			}
			return
		case <-tick.C:
			if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			t.Fatalf("listenAndServe still serving %v after SIGTERM", shutdownGrace)
		}
	}
}

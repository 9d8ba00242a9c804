package exper

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/llm"
	"repro/internal/obs"
	"repro/internal/proxy"
	"repro/internal/token"
	"repro/internal/workload"
)

// TestTable1ServedEqualsOffline serves Table I's 40 items through the
// proxy's HTTP front door, cache off, on a fresh default family at the
// table's cascade threshold, once as JSON and once as SSE. Both read
// modes must reproduce the offline cascade row to the micro-dollar —
// which also holds the wire's wrong_alts and difficulty fields to the
// request decoder, since the simulated answers depend on both. The SSE
// pass runs with early exit off, as the offline cascade has none; armed
// (a stream's default), it must keep the row's accuracy and may only
// spend less.
func TestTable1ServedEqualsOffline(t *testing.T) {
	ctx := context.Background()
	items := workload.GenQA(qaSeed, qaCount).Items
	wantCorrect, wantCost, err := table1Cascade(ctx, items)
	if err != nil {
		t.Fatal(err)
	}
	// The cascade row as last re-anchored: 37/40 at $0.239806.
	if wantCorrect != 37 || wantCost != 239806 {
		t.Errorf("offline cascade row: %d/%d at %d µ$, want 37/40 at 239806 µ$", wantCorrect, qaCount, int64(wantCost))
	}
	for _, mode := range []struct {
		name              string
		stream, earlyExit bool
	}{{"json", false, false}, {"sse", true, false}, {"sse with early exit", true, true}} {
		p := proxy.New(proxy.Config{Models: llm.DefaultFamily().Models(), Threshold: cascadeTau, DisableCache: true,
			DisableEarlyExit: !mode.earlyExit, Obs: obs.NewRegistry()})
		srv := httptest.NewServer(p.Handler())
		correct, cost := 0, token.Cost(0)
		for _, it := range items {
			req := qaRequest(it)
			text, micro := postServed(t, srv, proxy.CompletionRequest{Task: string(req.Task), Prompt: req.Prompt,
				Gold: req.Gold, Wrong: req.Wrong, WrongAlts: req.WrongAlts, Difficulty: req.Difficulty, Stream: mode.stream})
			if text == it.Answer {
				correct++
			}
			cost += token.Cost(micro)
		}
		srv.Close()
		p.Close()
		spend := p.Stats().Spend
		if exact := !mode.earlyExit; correct != wantCorrect || spend != cost ||
			(exact && cost != wantCost) || (!exact && cost > wantCost) {
			t.Errorf("served as %s: %d/%d at %d µ$ (proxy spend %d µ$), want the offline %d/%d at %d µ$",
				mode.name, correct, qaCount, int64(cost), int64(spend), wantCorrect, qaCount, int64(wantCost))
		}
	}
}

// postServed sends one completion and returns the answer text and its
// cost, from the JSON reply or the SSE done event.
func postServed(t *testing.T, srv *httptest.Server, req proxy.CompletionRequest) (string, int64) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Post(srv.URL+"/v1/complete", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/complete: %s", resp.Status)
	}
	if !req.Stream {
		var cr proxy.CompletionResponse
		if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
			t.Fatal(err)
		}
		return cr.Text, cr.CostMicro
	}
	var done proxy.StreamDone
	event := ""
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if name, ok := strings.CutPrefix(line, "event: "); ok {
			event = name
		} else if data, ok := strings.CutPrefix(line, "data: "); ok && event == "done" {
			if err := json.Unmarshal([]byte(data), &done); err != nil {
				t.Fatal(err)
			}
			return done.Text, done.CostMicro
		}
	}
	t.Fatalf("SSE reply without a done event (scan error: %v)", sc.Err())
	return "", 0
}

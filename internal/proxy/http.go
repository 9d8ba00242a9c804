package proxy

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"repro/internal/core/cascade"
	"repro/internal/llm"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/sched"
)

// CompletionRequest is the JSON body accepted by POST /v1/complete.
// Gold/Wrong/WrongAlts/Difficulty parameterize the simulated upstream (see
// internal/llm); a deployment backed by a real API would drop them.
type CompletionRequest struct {
	Task   string `json:"task,omitempty"`
	Prompt string `json:"prompt"`
	Gold   string `json:"gold,omitempty"`
	Wrong  string `json:"wrong,omitempty"`
	// WrongAlts are additional plausible wrong completions; with them the
	// HTTP surface can express self-consistency-style requests whose
	// hallucinations disperse (see llm.Request.WrongAlts).
	WrongAlts  []string `json:"wrong_alts,omitempty"`
	Difficulty float64  `json:"difficulty,omitempty"`
	// NoiseKey keys the correctness noise by the semantic core of the
	// request instead of the full prompt (see llm.Request.NoiseKey).
	NoiseKey string `json:"noise_key,omitempty"`
	// Priority selects the batching scheduler's class: "interactive"
	// (default), "batch" for bulk traffic that must not crowd out
	// interactive requests, or "streaming" (implied by Stream). Ignored
	// when the scheduler is off.
	Priority string `json:"priority,omitempty"`
	// Stream selects the server-sent-events response: chunk events as
	// tokens arrive, then a terminal done event (see Handler docs).
	Stream bool `json:"stream,omitempty"`
}

// decodeCompletionRequest decodes body into the zero req. The bodies
// clients send — one object of the eight scalar fields under their exact
// names, strings without a backslash, a JSON number for difficulty — are
// decoded here in one pass, each string copied out of body. Anything else
// (an escape, wrong_alts, an unknown or case-folded key, null, invalid
// UTF-8, bytes after the object, a malformed body) goes to encoding/json
// over the same bytes, whose verdict, value and message stand.
// FuzzDecodeCompletionRequest holds the two paths to one result.
func decodeCompletionRequest(body []byte, req *CompletionRequest) error {
	if decodeScalars(body, req) {
		return nil
	}
	// Its own variable, so only this path puts a request on the heap.
	var full CompletionRequest
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&full)
	*req = full
	return err
}

// decodeScalars is the one-pass path; false means body is not of its
// shape, and req holds whatever it had read by then.
func decodeScalars(body []byte, req *CompletionRequest) bool {
	s := scanner{b: body}
	if !s.next('{') {
		return false
	}
	if s.next('}') {
		return s.end()
	}
	for {
		s.space()
		key, ok := s.str()
		if !ok || !s.next(':') {
			return false
		}
		s.space()
		var field *string
		switch string(key) {
		case "task":
			field = &req.Task
		case "prompt":
			field = &req.Prompt
		case "gold":
			field = &req.Gold
		case "wrong":
			field = &req.Wrong
		case "noise_key":
			field = &req.NoiseKey
		case "priority":
			field = &req.Priority
		case "difficulty":
			if req.Difficulty, ok = s.number(); !ok {
				return false
			}
		case "stream":
			if req.Stream, ok = s.boolean(); !ok {
				return false
			}
		default:
			return false
		}
		if field != nil {
			v, ok := s.str()
			if !ok {
				return false
			}
			*field = string(v)
		}
		if s.next(',') {
			continue
		}
		return s.next('}') && s.end()
	}
}

// scanner reads the JSON that decodeScalars takes. A value reader that
// reports false has not moved.
type scanner struct {
	b []byte
	i int
}

// space skips JSON whitespace.
func (s *scanner) space() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// next skips whitespace and then c.
func (s *scanner) next(c byte) bool {
	s.space()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (s *scanner) end() bool {
	s.space()
	return s.i == len(s.b)
}

// str reads a string that encoding/json would return as its own bytes:
// no backslash, no control byte, valid UTF-8. The result aliases s.b.
func (s *scanner) str() ([]byte, bool) {
	if s.i >= len(s.b) || s.b[s.i] != '"' {
		return nil, false
	}
	ascii := true
	for j := s.i + 1; j < len(s.b); j++ {
		switch c := s.b[j]; {
		case c == '"':
			v := s.b[s.i+1 : j]
			if !ascii && !utf8.Valid(v) {
				return nil, false
			}
			s.i = j + 1
			return v, true
		case c < ' ' || c == '\\':
			return nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false
}

// number reads a number under JSON's grammar that parses as a finite
// float64, which is what encoding/json stores in a float64 field.
func (s *scanner) number() (float64, bool) {
	b, i := s.b, s.i
	digits := func() int {
		start := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i - start
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case digits() == 0:
		return 0, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		if digits() == 0 {
			return 0, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if digits() == 0 {
			return 0, false
		}
	}
	f, err := strconv.ParseFloat(string(b[s.i:i]), 64)
	if err != nil {
		return 0, false
	}
	s.i = i
	return f, true
}

// boolean reads true or false.
func (s *scanner) boolean() (v, ok bool) {
	switch rest := s.b[s.i:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		s.i += len("true")
		return true, true
	case bytes.HasPrefix(rest, []byte("false")):
		s.i += len("false")
		return false, true
	}
	return false, false
}

// ErrorBody is the typed error detail inside ErrorEnvelope.
type ErrorBody struct {
	// Code is a stable machine-readable error class: "bad_request",
	// "method_not_allowed", "overloaded", "upstream_unavailable",
	// "upstream_timeout", "upstream_error", "disabled" or "internal".
	Code    string `json:"code"`
	Message string `json:"message"`
	// Retryable tells well-behaved clients whether retrying (after any
	// Retry-After) can succeed.
	Retryable bool `json:"retryable"`
}

// ErrorEnvelope is the uniform JSON shape of every non-200 response
// from the proxy's HTTP surface.
type ErrorEnvelope struct {
	Error ErrorBody `json:"error"`
}

// jsonContentType is the Content-Type of every JSON reply, one slice
// shared by all of them: net/http only reads it.
var jsonContentType = []string{"application/json"}

// writeJSON emits v as the JSON body of a response with the given status.
// A 200 is implied by its first write rather than announced, so a reply
// that turns out not to encode (a non-finite number in it) has committed
// nothing and is answered 500 with the envelope instead of an empty 200;
// the other statuses carry the envelope itself, which always encodes.
func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header()["Content-Type"] = jsonContentType
	if status != http.StatusOK {
		w.WriteHeader(status)
	}
	err := json.NewEncoder(w).Encode(v)
	if err == nil || status != http.StatusOK {
		return
	}
	// Encode wrote nothing if it was the encoding that failed; a failed
	// write (the client left) is not ours to answer.
	if _, err := json.Marshal(v); err != nil {
		writeError(w, http.StatusInternalServerError, "internal", "reply cannot be encoded: "+err.Error(), false)
	}
}

// writeError emits the uniform error envelope.
func writeError(w http.ResponseWriter, status int, code, msg string, retryable bool) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	// A failed write is a client that left: nothing is left to answer.
	w.Write(appendErrorEnvelope(nil, &ErrorBody{Code: code, Message: msg, Retryable: retryable}))
}

// errorBodyFor maps a serving-path error to its typed error detail and
// HTTP status — the one mapping behind both the JSON envelope and the SSE
// "error" event, so the two surfaces cannot disagree.
func errorBodyFor(err error) (int, ErrorBody) {
	switch {
	case errors.Is(err, errUnencodable):
		return http.StatusInternalServerError, ErrorBody{Code: "internal", Message: err.Error(), Retryable: false}
	case errors.Is(err, resilience.ErrOverloaded):
		return http.StatusServiceUnavailable, ErrorBody{Code: "overloaded", Message: err.Error(), Retryable: true}
	case errors.Is(err, cascade.ErrAllTiersOpen):
		return http.StatusServiceUnavailable, ErrorBody{Code: "upstream_unavailable", Message: err.Error(), Retryable: true}
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, ErrorBody{Code: "upstream_timeout", Message: err.Error(), Retryable: true}
	default:
		return http.StatusBadGateway, ErrorBody{Code: "upstream_error", Message: err.Error(), Retryable: false}
	}
}

// get mounts a handler that answers anything but GET with the 405
// envelope.
func get(mux *http.ServeMux, path string, h http.HandlerFunc) {
	mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "GET only", false)
			return
		}
		h(w, r)
	})
}

// queryCount parses the optional ?n= result cap (0, the default, means
// all). When it is malformed the 400 envelope is written and ok is false.
func queryCount(w http.ResponseWriter, r *http.Request) (n int, ok bool) {
	s := r.URL.Query().Get("n")
	if s == "" {
		return 0, true
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		writeError(w, http.StatusBadRequest, "bad_request", "n must be a non-negative integer", false)
		return 0, false
	}
	return n, true
}

// completionError writes a serving-path error as its envelope.
func completionError(w http.ResponseWriter, err error) {
	status, body := errorBodyFor(err)
	if status == http.StatusServiceUnavailable {
		// Shed by the limiter, or every tier's breaker open: tell
		// well-behaved clients to retry.
		w.Header().Set("Retry-After", "1")
	}
	writeError(w, status, body.Code, body.Message, body.Retryable)
}

// CompletionResponse is the JSON reply of POST /v1/complete: the settled
// Answer on the wire. TraceID keys into /debug/traces?trace= and
// /debug/events?trace= to replay the request's lifecycle.
type CompletionResponse struct {
	Text       string  `json:"text"`
	Model      string  `json:"model"`
	Source     string  `json:"source"`
	Confidence float64 `json:"confidence"`
	CostMicro  int64   `json:"cost_micro_usd"`
	ElapsedMS  float64 `json:"elapsed_ms"`
	TraceID    string  `json:"trace_id,omitempty"`
}

// elapsedMS is the wire form of Answer.Elapsed, shared by the JSON reply
// and the SSE done event.
func elapsedMS(ans Answer) float64 { return float64(ans.Elapsed.Microseconds()) / 1000 }

// maxRequestBytes bounds a POST /v1/complete body; a larger one is
// answered 413 without being read to the end. maxPromptBytes bounds the
// prompt inside it — the part that is embedded, scanned for and cached —
// and is answered the same way.
const maxRequestBytes, maxPromptBytes = 1 << 20, 64 << 10

// bodyBufs holds the buffers POST /v1/complete reads its body into and
// then appends its reply to. One grown past maxPooledBody is dropped,
// so an occasional large body does not stay resident.
var bodyBufs = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

const maxPooledBody = 64 << 10

// readBody appends all of r to buf.
func readBody(r io.Reader, buf []byte) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// TenantHeader is the HTTP header carrying the caller's tenant
// identity. Absent or empty, the request is attributed to
// obs.DefaultTenant.
const TenantHeader = "X-LLMDM-Tenant"

// tenantKey is TenantHeader in net/http's canonical form, which a lookup
// takes as it is rather than canonicalizing into a new string.
var tenantKey = http.CanonicalHeaderKey(TenantHeader)

// Handler returns the proxy's HTTP mux:
//
//	POST /v1/complete   — serve one completion (X-LLMDM-Tenant attributes it);
//	                      with "stream": true the reply is Server-Sent Events:
//	                      one "chunk" event per token group (data: Chunk JSON),
//	                      then a terminal "done" event carrying the full text,
//	                      cost, tier and trace id — or an "error" event with
//	                      the same ErrorBody JSON the non-streamed surface
//	                      returns. Every non-200 response on every endpoint
//	                      is an ErrorEnvelope.
//	GET  /v1/stats      — lifetime counters (+ latency percentiles, tenants, alerts)
//	GET  /v1/slo        — per-class SLO scorecard with burn rates
//	GET  /v1/tenants    — per-tenant attribution table (?n= caps to top spenders)
//	GET  /v1/alerts     — alert rule states, evaluated on demand
//	GET  /metrics       — Prometheus text exposition (?format=json for JSON)
//	GET  /debug/traces  — recent request span trees, JSON (?n=, ?trace=)
//	GET  /debug/events  — recent lifecycle events (?trace=, ?level=, ?name=,
//	                      ?tenant=, ?n=, ?since= cursor)
//	GET  /debug/pprof/* — net/http/pprof, only with Config.EnablePprof
//	GET  /healthz       — liveness + alert summary
func (p *Proxy) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/complete", p.serveComplete)
	get(mux, "/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		st := p.Stats()
		out := map[string]interface{}{
			"requests":        st.Requests,
			"cache_hits":      st.CacheHits,
			"coalesced":       st.Coalesced,
			"model_calls":     st.ModelCalls,
			"shed":            st.Shed,
			"streams":         st.Streams,
			"spend_micro_usd": int64(st.Spend),
		}
		if states := p.BreakerStates(); states != nil {
			breakers := make(map[string]string, len(states))
			for name, s := range states {
				breakers[name] = s.String()
			}
			out["breakers"] = breakers
		}
		// Latency percentiles per source, estimated from the histograms,
		// so operators read p99s without scraping raw buckets; p99_trace
		// is the exemplar nearest that quantile — the key into
		// /debug/traces for "what does a slow one look like".
		latency := make(map[string]map[string]interface{})
		for source, m := range p.series {
			h := m.latency
			if h == nil || h.Count() == 0 {
				continue
			}
			entry := map[string]interface{}{
				"p50_ms": h.Quantile(0.50) * 1000,
				"p95_ms": h.Quantile(0.95) * 1000,
				"p99_ms": h.Quantile(0.99) * 1000,
			}
			if ex, ok := h.ExemplarNear(0.99); ok {
				entry["p99_trace"] = ex.Trace
			}
			latency[source] = entry
		}
		if len(latency) > 0 {
			out["latency"] = latency
		}
		if p.tenants != nil {
			ts := p.tenants.Snapshot(5)
			out["tenants"] = map[string]interface{}{
				"capacity": ts.Capacity,
				"tracked":  ts.Tracked,
				"top":      ts.Tenants,
			}
		}
		if p.alerts != nil {
			as := p.alerts.Evaluate()
			out["alerts"] = map[string]interface{}{
				"firing":  as.Firing,
				"pending": as.Pending,
			}
		}
		if ss, ok := p.SchedStats(); ok {
			out["scheduler"] = map[string]interface{}{
				"submitted":     ss.Submitted,
				"batches":       ss.Batches,
				"batched_items": ss.BatchedItems,
				"canceled":      ss.Canceled,
				"failed":        ss.Failed,
				"bypassed":      ss.Bypassed,
			}
		}
		writeJSON(w, http.StatusOK, out)
	})
	get(mux, "/v1/slo", func(w http.ResponseWriter, r *http.Request) {
		if p.slo == nil {
			writeError(w, http.StatusNotFound, "disabled", "SLO tracking disabled", false)
			return
		}
		writeJSON(w, http.StatusOK, p.slo.Snapshot())
	})
	get(mux, "/v1/tenants", func(w http.ResponseWriter, r *http.Request) {
		if p.tenants == nil {
			writeError(w, http.StatusNotFound, "disabled", "tenant attribution disabled", false)
			return
		}
		n, ok := queryCount(w, r)
		if !ok {
			return
		}
		writeJSON(w, http.StatusOK, p.tenants.Snapshot(n))
	})
	get(mux, "/v1/alerts", func(w http.ResponseWriter, r *http.Request) {
		if p.alerts == nil {
			writeError(w, http.StatusNotFound, "disabled", "alerting disabled", false)
			return
		}
		writeJSON(w, http.StatusOK, p.alerts.Evaluate())
	})
	get(mux, "/metrics", func(w http.ResponseWriter, r *http.Request) {
		// Refresh the slo_* gauges so every scrape sees current burn rates.
		if p.slo != nil {
			p.slo.Snapshot()
		}
		// ?format=json selects the JSON exposition; default is Prometheus
		// text.
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			p.reg.WriteJSON(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		p.reg.WritePrometheus(w)
	})
	get(mux, "/debug/traces", func(w http.ResponseWriter, r *http.Request) {
		traces := []obs.SpanData{}
		if id := r.URL.Query().Get("trace"); id != "" {
			if td, ok := p.tracer.ByID(id); ok {
				traces = append(traces, td)
			}
		} else {
			n, ok := queryCount(w, r)
			if !ok {
				return
			}
			traces = p.tracer.Recent(n)
		}
		writeJSON(w, http.StatusOK, map[string]interface{}{"traces": traces})
	})
	get(mux, "/debug/events", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		f := obs.EventFilter{Trace: q.Get("trace"), Name: q.Get("name"), Tenant: q.Get("tenant")}
		if s := q.Get("level"); s != "" {
			min, ok := obs.ParseLevel(s)
			if !ok {
				writeError(w, http.StatusBadRequest, "bad_request", "level must be debug, info, warn or error", false)
				return
			}
			f.Min = min
		}
		var ok bool
		if f.Max, ok = queryCount(w, r); !ok {
			return
		}
		// ?since=<seq> resumes from a cursor: only events with a higher
		// seq return, "next" is the cursor for the following call, and
		// "missing" counts events the ring evicted before this read. With
		// ?n=<k> a cursor read returns the oldest k events after the
		// cursor and "next" is the last one's seq, so paging skips
		// nothing; without a cursor, ?n keeps the newest k.
		var since uint64
		if s := q.Get("since"); s != "" {
			v, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				writeError(w, http.StatusBadRequest, "bad_request", "since must be a non-negative integer", false)
				return
			}
			since = v
		}
		ring := p.Events()
		events, missing, next := ring.EventsSince(since, f)
		if events == nil {
			events = []obs.Event{}
		}
		writeJSON(w, http.StatusOK, map[string]interface{}{
			"events":      events,
			"capacity":    ring.Cap(),
			"overwritten": ring.Overwritten(),
			"next":        next,
			"missing":     missing,
		})
	})
	if p.pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		// Liveness stays HTTP 200 even while alerting — a firing SLO alert
		// means "page somebody", not "restart the process" — but the body
		// summarizes the alert engine so one curl answers "is it healthy".
		status := "ok"
		firing, pending := 0, 0
		if p.alerts != nil {
			as := p.alerts.Evaluate()
			firing, pending = as.Firing, as.Pending
			if firing > 0 {
				status = "alerting"
			}
		}
		writeJSON(w, http.StatusOK, map[string]interface{}{
			"status":  status,
			"firing":  firing,
			"pending": pending,
		})
	})
	return mux
}

// serveComplete is POST /v1/complete. It reads the whole body through
// http.MaxBytesReader (any body over the cap is 413, and the connection
// closes) into a pooled buffer; once the request is decoded out of it,
// the same buffer holds the JSON reply.
func (p *Proxy) serveComplete(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "POST only", false)
		return
	}
	bp := bodyBufs.Get().(*[]byte)
	defer func() {
		if cap(*bp) <= maxPooledBody {
			bodyBufs.Put(bp)
		}
	}()
	body, err := readBody(http.MaxBytesReader(w, r.Body, maxRequestBytes), (*bp)[:0])
	*bp = body
	var req CompletionRequest
	if err == nil {
		err = decodeCompletionRequest(body, &req)
	}
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, "bad_request", "bad JSON: "+err.Error(), false)
		return
	}
	if req.Prompt == "" {
		writeError(w, http.StatusBadRequest, "bad_request", "prompt is required", false)
		return
	}
	if len(req.Prompt) > maxPromptBytes {
		writeError(w, http.StatusRequestEntityTooLarge, "bad_request", "prompt exceeds "+strconv.Itoa(maxPromptBytes)+" bytes", false)
		return
	}
	ctx := r.Context()
	tenant := strings.TrimSpace(r.Header.Get(tenantKey))
	if len(tenant) > obs.MaxTenantLen {
		writeError(w, http.StatusBadRequest, "bad_request", "tenant identifier too long", false)
		return
	}
	if tenant == "" {
		tenant = obs.DefaultTenant
	}
	ctx = obs.WithTenant(ctx, tenant)
	if req.Priority != "" {
		class, err := sched.ParseClass(req.Priority)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad_request", err.Error(), false)
			return
		}
		ctx = sched.WithClass(ctx, class)
	}
	if req.Stream {
		p.serveStream(w, ctx, toLLMRequest(req))
		return
	}
	ans, err := p.Complete(ctx, toLLMRequest(req))
	if err != nil {
		completionError(w, err)
		return
	}
	reply := CompletionResponse{
		Text:       ans.Text,
		Model:      ans.Model,
		Source:     ans.Source,
		Confidence: ans.Confidence,
		CostMicro:  int64(ans.Cost),
		ElapsedMS:  elapsedMS(ans),
		TraceID:    ans.Trace,
	}
	out, ok := appendCompletion(body[:0], &reply)
	*bp = out
	if !ok {
		writeJSON(w, http.StatusOK, reply) // answers the 500 envelope
		return
	}
	w.Header()["Content-Type"] = jsonContentType
	w.Write(out) // the request is already accounted, whether or not the client is still there
}

func toLLMRequest(req CompletionRequest) llm.Request {
	return llm.Request{
		Task:       llm.Task(req.Task),
		Prompt:     req.Prompt,
		Gold:       req.Gold,
		Wrong:      req.Wrong,
		WrongAlts:  req.WrongAlts,
		Difficulty: req.Difficulty,
		NoiseKey:   req.NoiseKey,
	}
}

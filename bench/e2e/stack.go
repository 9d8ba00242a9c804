package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/llm"
	"repro/internal/obs"
	"repro/internal/proxy"
	"repro/internal/sched"
)

// traceRing is how many finished request traces the proxy keeps; the
// span-agreement cross-check reads them back after the traced pass.
const traceRing = 256

// epoch anchors every harness timestamp: nanoseconds since process start,
// on the monotonic clock.
var epoch = time.Now()

func nowNS() int64 { return int64(time.Since(epoch)) }

// stack is one serving stack under test: the real proxy behind a loopback
// HTTP server, every telemetry sink private to it.
type stack struct {
	reg    *obs.Registry
	family llm.Family
	proxy  *proxy.Proxy
	url    string
	timer  *modelTimer // nil unless the run is traced

	srv    *http.Server
	served chan struct{} // closed when Serve returns
}

// buildModels returns the cascade chain for sp over family: paced where the
// workload asks for wall-clock model time, and wrapped by timer (when
// non-nil) so the traced pass can time model calls from outside.
func buildModels(sp spec, family llm.Family, timer *modelTimer) []llm.Model {
	models := make([]llm.Model, len(family))
	for i, m := range family {
		var tier llm.Model = m
		if sp.paced {
			tier = llm.NewPaced(m, 100)
		}
		if timer != nil {
			tier = timer.wrap(tier)
		}
		models[i] = tier
	}
	return models
}

// proxyConfig is the workload's proxy configuration. quiet turns the SLO
// tracker, tenant accountant and alert engine off and raises the logger
// to Error: the same requests against a quiet proxy price the telemetry.
func proxyConfig(sp spec, reg *obs.Registry, models []llm.Model, quiet bool) proxy.Config {
	level := obs.Debug
	if quiet {
		level = obs.Error
	}
	cfg := proxy.Config{
		Models:         models,
		CacheCapacity:  sp.cacheCap,
		DisableCache:   sp.noCache,
		Obs:            reg,
		Tracer:         obs.NewTracer(traceRing),
		Log:            obs.NewLogger(obs.NewEventLog(obs.DefaultEventCapacity), level, reg),
		DisableSLO:     quiet,
		DisableTenants: quiet,
		DisableAlerts:  quiet,
	}
	if sp.paced {
		cfg.Scheduler = &sched.Config{}
		cfg.MaxConcurrent, cfg.MaxQueue = 64, 64
	}
	return cfg
}

// startStack builds the proxy for sp and serves its Handler on 127.0.0.1:0.
func startStack(sp spec, traced, quiet bool) (*stack, error) {
	st := &stack{reg: obs.NewRegistry(), served: make(chan struct{})}
	st.family = llm.DefaultFamilyObs(st.reg)
	if traced {
		st.timer = &modelTimer{}
	}
	st.proxy = proxy.New(proxyConfig(sp, st.reg, buildModels(sp, st.family, st.timer), quiet))

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.proxy.Close()
		return nil, err
	}
	st.url = "http://" + ln.Addr().String() + "/v1/complete"
	st.srv = &http.Server{Handler: st.proxy.Handler()}
	obs.Go(st.reg, "bench_serve", func() {
		defer close(st.served)
		// Serve returns ErrServerClosed after Shutdown; any other error
		// surfaces as failed requests in the driver.
		_ = st.srv.Serve(ln)
	})
	return st, nil
}

// close shuts the server down, waits for it, and drains the scheduler.
func (st *stack) close(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	err := st.srv.Shutdown(ctx)
	if err != nil {
		err = errors.Join(err, st.srv.Close())
	}
	select {
	case <-st.served:
	case <-ctx.Done():
		err = errors.Join(err, ctx.Err())
	}
	st.proxy.Close()
	return err
}

// modelCall is one timed call into a model tier.
type modelCall struct {
	prompt     string
	model      string
	start, end int64
	chunks     int // chunks delivered, for streamed calls
}

// modelTimer records every model call while on. llm.Model, BatchModel and
// StreamModel are interfaces, so the wrappers pass through
// proxy.Config.Models and time the calls where they really happen: inside
// the cascade, inside the HTTP request.
type modelTimer struct {
	on    atomic.Bool
	mu    sync.Mutex
	calls []modelCall
}

func (t *modelTimer) record(c modelCall) {
	t.mu.Lock()
	t.calls = append(t.calls, c)
	t.mu.Unlock()
}

// take returns the calls recorded so far and clears the log.
func (t *modelTimer) take() []modelCall {
	t.mu.Lock()
	defer t.mu.Unlock()
	calls := t.calls
	t.calls = nil
	return calls
}

// wrap returns m behind the timer, keeping the optional interfaces m has:
// the proxy hands BatchModels to the scheduler and the cascade streams
// from StreamModels, so a wrapper that hid them would change the path.
func (t *modelTimer) wrap(m llm.Model) llm.Model {
	base := timedModel{Model: m, t: t}
	bm, isBatch := m.(llm.BatchModel)
	sm, isStream := m.(llm.StreamModel)
	switch {
	case isBatch && isStream:
		return &timedBatchStreamModel{timedBatchModel{base, bm}, sm}
	case isBatch:
		return &timedBatchModel{base, bm}
	default:
		return &base
	}
}

type timedModel struct {
	llm.Model
	t *modelTimer
}

func (m *timedModel) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	if !m.t.on.Load() {
		return m.Model.Complete(ctx, req)
	}
	start := nowNS()
	resp, err := m.Model.Complete(ctx, req)
	m.t.record(modelCall{prompt: req.Prompt, model: m.Name(), start: start, end: nowNS()})
	return resp, err
}

type timedBatchModel struct {
	timedModel
	batch llm.BatchModel
}

func (m *timedBatchModel) GenerateBatch(ctx context.Context, reqs []llm.Request) ([]llm.Response, error) {
	if !m.t.on.Load() {
		return m.batch.GenerateBatch(ctx, reqs)
	}
	start := nowNS()
	resps, err := m.batch.GenerateBatch(ctx, reqs)
	end := nowNS()
	for _, r := range reqs { // one batched call serves every request in it
		m.t.record(modelCall{prompt: r.Prompt, model: m.Name(), start: start, end: end})
	}
	return resps, err
}

type timedBatchStreamModel struct {
	timedBatchModel
	stream llm.StreamModel
}

func (m *timedBatchStreamModel) GenerateStream(ctx context.Context, req llm.Request) (llm.Stream, error) {
	if !m.t.on.Load() {
		return m.stream.GenerateStream(ctx, req)
	}
	start := nowNS()
	s, err := m.stream.GenerateStream(ctx, req)
	if err != nil {
		return nil, err
	}
	return &timedStream{Stream: s, t: m.t, call: modelCall{prompt: req.Prompt, model: m.Name(), start: start}}, nil
}

// timedStream closes its model call at the final chunk, or when the
// cascade abandons the tier (early exit closes the stream).
type timedStream struct {
	llm.Stream
	t    *modelTimer
	call modelCall
	once sync.Once
}

func (s *timedStream) finish() {
	s.once.Do(func() {
		s.call.end = nowNS()
		s.t.record(s.call)
	})
}

func (s *timedStream) Recv() (llm.Chunk, error) {
	ch, err := s.Stream.Recv()
	if err == nil {
		s.call.chunks++
	}
	if err != nil || ch.Final {
		s.finish()
	}
	return ch, err
}

func (s *timedStream) Close() error {
	s.finish()
	return s.Stream.Close()
}

// probe is the harness's reading of the machine's speed, one a client, taken
// after every request to the proxy and so under the same conditions a few
// dozen microseconds apart. It has two parts. One crosses the kernel and the
// scheduler: a round trip to the null server, a loopback HTTP server in the
// same process whose handler decodes a completion request and encodes a
// reply of the proxy's shape, and nothing else. The other never leaves the
// client's goroutine: the same decode and encode, called directly. No program
// code is on either path, so two runs' probes compare the machine and the Go
// runtime, not the change under test.
//
// This machine is a few cores of a shared host, and what the host's other
// guests do moves every timing on it — the round trip of a cache hit and an
// 8 MB vector scan alike — by a half and more, for a second or for minutes,
// with nothing stolen that /proc/stat could show. A slice's timings are
// therefore reported at the reference machine's speed: divided by the
// geometric mean of (median null round trip during the slice /
// referenceNullUS) and (median codec time / referenceCodecUS). Over ten runs
// of one binary that takes a median latency whose quartiles lie 3 to 30%
// apart to quartiles 1 to 3% apart. The round trip alone reads slow on a
// workload that leaves the cores idle (waking one costs more than the
// request), the codec alone misses what the kernel's share costs; together
// they hold on every workload. Only medians are used: the probe's tail shares
// the process's collector with the program, and a program that allocates less
// would shorten it.
type probe struct {
	null *client
}

// nullRequest is what the probe decodes: a request of the size and shape
// the workloads send the proxy.
var nullRequest = request{body: []byte(`{"task":"qa","prompt":"braidou stosth goukai lounem trougeas haigar daibus pregol veagu dreabis fubris traumeam ref 17","gold":"zaisteal gloutroun koutaim hounar","difficulty":0.05}`)}

// nullReply is the probe's codec: decode a completion request, encode a reply.
func nullReply(w io.Writer, r io.Reader) error {
	var req proxy.CompletionRequest
	if err := json.NewDecoder(r).Decode(&req); err != nil {
		return err
	}
	return json.NewEncoder(w).Encode(proxy.CompletionResponse{Text: req.Gold, Model: "null", Source: "null", Confidence: 1, TraceID: "0000000000000000"})
}

// take adds one reading to t. A round trip that fails adds none; the run
// then fails on the request it could not send either.
func (p *probe) take(ctx context.Context, t *tally) {
	if rep := p.null.do(ctx, nullRequest); rep.err == nil && rep.status == http.StatusOK {
		t.null = append(t.null, float64(rep.done-rep.sent)/1e3)
	}
	t0 := nowNS()
	_ = nullReply(io.Discard, bytes.NewReader(nullRequest.body)) // the body is the harness's own
	t.codec = append(t.codec, float64(nowNS()-t0)/1e3)
}

// nullServer serves nullReply on loopback.
type nullServer struct {
	url    string
	srv    *http.Server
	served chan struct{}
}

func startNullServer(reg *obs.Registry) (*nullServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &nullServer{url: "http://" + ln.Addr().String() + "/", served: make(chan struct{})}
	n.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := nullReply(w, r.Body); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
		}
	})}
	obs.Go(reg, "bench_null_serve", func() {
		defer close(n.served)
		_ = n.srv.Serve(ln) // returns ErrServerClosed after Shutdown
	})
	return n, nil
}

func (n *nullServer) close(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	err := n.srv.Shutdown(ctx)
	select {
	case <-n.served:
	case <-ctx.Done():
		err = errors.Join(err, ctx.Err())
	}
	return err
}

package sched

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/llm"
	"repro/internal/obs"
	"repro/internal/token"
)

// fakeBatch is a controllable BatchModel: it records every batch it
// serves (with the class mix resolved by the scheduler), optionally
// blocks on a gate before serving, and answers each request with its
// gold text.
type fakeBatch struct {
	name  string
	gate  chan struct{} // when non-nil, one receive per batch before serving
	delay time.Duration // per-batch service time

	mu      sync.Mutex
	batches [][]llm.Request
}

func (f *fakeBatch) Name() string { return f.name }

func (f *fakeBatch) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	resps, err := f.GenerateBatch(ctx, []llm.Request{req})
	if err != nil {
		return llm.Response{}, err
	}
	return resps[0], nil
}

func (f *fakeBatch) GenerateBatch(ctx context.Context, reqs []llm.Request) ([]llm.Response, error) {
	if f.gate != nil {
		select {
		case <-f.gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if f.delay > 0 {
		select {
		case <-time.After(f.delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	f.mu.Lock()
	f.batches = append(f.batches, append([]llm.Request(nil), reqs...))
	f.mu.Unlock()
	resps := make([]llm.Response, len(reqs))
	for i, r := range reqs {
		resps[i] = llm.Response{Text: r.Gold, Correct: true, Confidence: 0.9, Model: f.name}
	}
	return resps, nil
}

func (f *fakeBatch) recorded() [][]llm.Request {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([][]llm.Request(nil), f.batches...)
}

func req(class Class, i int) llm.Request {
	return llm.Request{Prompt: fmt.Sprintf("%s req %d", class, i), Gold: fmt.Sprintf("gold %d", i)}
}

func TestSubmitRoundTrip(t *testing.T) {
	f := &fakeBatch{name: "m"}
	s := New(Config{Obs: obs.NewRegistry()}, f)
	defer s.Close()

	var wg sync.WaitGroup
	errs := make([]error, 20)
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := s.Submit(context.Background(), "m", req(Interactive, i))
			if err == nil && resp.Text != fmt.Sprintf("gold %d", i) {
				err = fmt.Errorf("wrong answer %q", resp.Text)
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("submit %d: %v", i, err)
		}
	}
	st := s.Stats()
	if st.Submitted != 20 || st.BatchedItems != 20 {
		t.Errorf("stats: %+v", st)
	}
	if st.Batches == 0 || st.Batches > 20 {
		t.Errorf("batches = %d", st.Batches)
	}
}

func TestSubmitErrors(t *testing.T) {
	f := &fakeBatch{name: "m"}
	s := New(Config{Obs: obs.NewRegistry()}, f)

	if _, err := s.Submit(context.Background(), "nope", req(Interactive, 0)); err != ErrUnknownModel {
		t.Errorf("unknown model: %v, want the bare ErrUnknownModel", err)
	}
	if _, err := s.Submit(context.Background(), "m", llm.Request{}); !errors.Is(err, llm.ErrEmptyPrompt) {
		t.Errorf("empty prompt: %v", err)
	}
	if _, err := s.Submit(context.Background(), "m", req(Interactive, 0)); err != nil {
		t.Errorf("scheduled tier: %v", err)
	}
	r := req(Interactive, 0)
	if allocs := testing.AllocsPerRun(10, func() { s.Submit(context.Background(), "nope", r) }); allocs != 0 {
		t.Errorf("Submit to an unmanaged tier = %g allocs, want 0", allocs)
	}
	s.Close()
	if _, err := s.Submit(context.Background(), "m", req(Interactive, 0)); !errors.Is(err, ErrClosed) {
		t.Errorf("closed scheduler: %v", err)
	}
	if _, err := s.Submit(context.Background(), "m", req(Streaming, 0)); !errors.Is(err, ErrClosed) {
		t.Errorf("closed scheduler, streaming class: %v", err)
	}
}

// With both classes backlogged, dequeues must follow the 4:1
// weighted-fair ratio — bulk load cannot crowd interactive out, and
// interactive history cannot starve bulk either.
func TestWeightedFairRatioUnderBacklog(t *testing.T) {
	gate := make(chan struct{})
	f := &fakeBatch{name: "m", gate: gate}
	s := New(Config{
		MaxBatch: 5,
		MaxWait:  time.Millisecond,
		Obs:      obs.NewRegistry(),
	}, f)
	defer s.Close()

	// Park the dispatcher on a first sacrificial batch so the real
	// traffic accumulates as backlog behind it.
	bctx := WithClass(context.Background(), Batch)
	ictx := WithClass(context.Background(), Interactive)
	go s.Submit(bctx, "m", req(Batch, 999))
	time.Sleep(20 * time.Millisecond) // dispatcher now blocked on the gate

	const n = 40
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) { defer wg.Done(); s.Submit(ictx, "m", req(Interactive, i)) }(i)
		wg.Add(1)
		go func(i int) { defer wg.Done(); s.Submit(bctx, "m", req(Batch, i)) }(i)
	}
	time.Sleep(50 * time.Millisecond) // let every submitter enqueue

	// Release batches until all traffic is served.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		select {
		case gate <- struct{}{}:
		case <-done:
			goto check
		case <-time.After(5 * time.Second):
			t.Fatal("scheduler wedged")
		}
	}
check:
	// While both classes were backlogged (the early flushes), each full
	// batch of 5 should carry 4 interactive + 1 batch items.
	batches := f.recorded()
	interleaved := 0
	for _, b := range batches[1:] { // skip the sacrificial first batch
		if len(b) < 5 {
			continue // tail flush after one class drained
		}
		var i, bk int
		for _, r := range b {
			if len(r.Prompt) >= len("interactive") && r.Prompt[:11] == "interactive" {
				i++
			} else {
				bk++
			}
		}
		if i == 0 || bk == 0 {
			continue // backlog of one class exhausted
		}
		interleaved++
		if i != 4 || bk != 1 {
			t.Errorf("full batch mix %d interactive / %d batch, want 4/1 (batch %v)", i, bk, b)
		}
	}
	if interleaved < 3 {
		t.Errorf("only %d interleaved full batches observed; backlog phase too short", interleaved)
	}
}

// Interactive requests must keep completing promptly while bulk
// producers maintain a standing batch-class backlog.
func TestInteractiveNotStarvedUnderBatchLoad(t *testing.T) {
	f := &fakeBatch{name: "m", delay: 2 * time.Millisecond}
	s := New(Config{
		MaxBatch: 8,
		MaxWait:  500 * time.Microsecond,
		Obs:      obs.NewRegistry(),
	}, f)
	defer s.Close()

	stop := make(chan struct{})
	var producers sync.WaitGroup
	bctx := WithClass(context.Background(), Batch)
	for p := 0; p < 4; p++ {
		producers.Add(1)
		go func(p int) {
			defer producers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				s.Submit(bctx, "m", req(Batch, p*1_000_000+i))
			}
		}(p)
	}
	time.Sleep(20 * time.Millisecond) // build a standing backlog

	ictx := WithClass(context.Background(), Interactive)
	var worst time.Duration
	for i := 0; i < 20; i++ {
		start := time.Now()
		ctx, cancel := context.WithTimeout(ictx, 2*time.Second)
		_, err := s.Submit(ctx, "m", req(Interactive, i))
		cancel()
		if err != nil {
			t.Fatalf("interactive request %d starved: %v", i, err)
		}
		if d := time.Since(start); d > worst {
			worst = d
		}
	}
	close(stop)
	producers.Wait()
	// Each interactive request should ride one of the next few flushes
	// (~2ms service each), not wait for the whole bulk backlog.
	if worst > 500*time.Millisecond {
		t.Errorf("worst interactive latency %v under batch load", worst)
	}
}

// Under light sequential load the window must shrink to the floor, and
// under a concurrent flood it must grow again.
func TestAdaptiveWindow(t *testing.T) {
	f := &fakeBatch{name: "m"}
	cfg := Config{
		MaxBatch: 16,
		MaxWait:  20 * time.Millisecond,
		Obs:      obs.NewRegistry(),
	}
	s := New(cfg, f)
	defer s.Close()

	if w := s.Stats().Windows["m"]; w != cfg.MaxWait {
		t.Fatalf("initial window %v, want ceiling %v", w, cfg.MaxWait)
	}
	// Light load: one request at a time. Every flush is a deadline flush
	// of size 1, so the window halves down to the floor.
	for i := 0; i < 12; i++ {
		if _, err := s.Submit(context.Background(), "m", req(Interactive, i)); err != nil {
			t.Fatal(err)
		}
	}
	if w := s.Stats().Windows["m"]; w != minWait {
		t.Errorf("window after light load %v, want floor %v", w, minWait)
	}

	// Heavy load: a flood of concurrent requests produces size-triggered
	// flushes, which double the window back up.
	var wg sync.WaitGroup
	for i := 0; i < 400; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.Submit(context.Background(), "m", req(Interactive, 1000+i))
		}(i)
	}
	wg.Wait()
	if w := s.Stats().Windows["m"]; w <= 2*minWait {
		t.Errorf("window after heavy load %v, expected growth above %v", w, 2*minWait)
	}
}

// The adaptive window keeps the batched path's p50 latency within 2× of
// the direct unbatched path under light load.
func TestLightLoadP50WithinTwiceUnbatched(t *testing.T) {
	mk := func() (*llm.Paced, *llm.SimModel) {
		sim := llm.NewSim(llm.SimConfig{
			Name:       "m",
			Capability: 0.9,
			Price:      token.Price{InputPer1K: 1000, OutputPer1K: 2000},
			// ~10 tokens per call at the default 50 tok/s simulated ≈
			// 200ms simulated; scale 100 → ~2ms of wall clock per call.
			Obs: obs.NewRegistry(),
		})
		return llm.NewPaced(sim, 100), sim
	}

	p50 := func(samples []time.Duration) time.Duration {
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		return samples[len(samples)/2]
	}

	const warm, n = 15, 30
	ctx := context.Background()

	direct, _ := mk()
	var directSamples []time.Duration
	for i := 0; i < n; i++ {
		start := time.Now()
		if _, err := direct.Complete(ctx, req(Interactive, i)); err != nil {
			t.Fatal(err)
		}
		directSamples = append(directSamples, time.Since(start))
	}

	paced, _ := mk()
	s := New(Config{
		MaxBatch: 16,
		MaxWait:  10 * time.Millisecond,
		Obs:      obs.NewRegistry(),
	}, paced)
	defer s.Close()
	// Warm-up: let the adaptive window shrink to the floor.
	for i := 0; i < warm; i++ {
		if _, err := s.Submit(ctx, "m", req(Interactive, i)); err != nil {
			t.Fatal(err)
		}
	}
	var schedSamples []time.Duration
	for i := 0; i < n; i++ {
		start := time.Now()
		if _, err := s.Submit(ctx, "m", req(Interactive, warm+i)); err != nil {
			t.Fatal(err)
		}
		schedSamples = append(schedSamples, time.Since(start))
	}

	dp, sp := p50(directSamples), p50(schedSamples)
	t.Logf("p50 direct=%v scheduled=%v window=%v", dp, sp, s.Stats().Windows["m"])
	if sp > 2*dp {
		t.Errorf("light-load p50 %v exceeds 2× the unbatched p50 %v", sp, dp)
	}
}

// A submitter whose context dies while queued stops waiting, and its
// item is dropped from the flush instead of billed into the batch.
func TestSubmitCancellation(t *testing.T) {
	gate := make(chan struct{})
	f := &fakeBatch{name: "m", gate: gate}
	s := New(Config{MaxBatch: 4, MaxWait: time.Millisecond, Obs: obs.NewRegistry()}, f)
	defer s.Close()

	// Park the dispatcher, then queue an item and cancel it.
	go s.Submit(context.Background(), "m", req(Interactive, 0))
	time.Sleep(20 * time.Millisecond)

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := s.Submit(ctx, "m", req(Interactive, 1))
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond) // let it enqueue
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled submitter got %v", err)
	}

	// Release the parked batch; the canceled item's flush never reaches
	// the model, so no further gate sends are needed.
	gate <- struct{}{}
	deadline := time.Now().Add(2 * time.Second)
	for s.Stats().Canceled == 0 {
		if time.Now().After(deadline) {
			t.Fatal("canceled item never dropped")
		}
		time.Sleep(time.Millisecond)
	}
	for _, b := range f.recorded() {
		for _, r := range b {
			if r.Prompt == "interactive req 1" {
				t.Error("canceled item was served in a batch")
			}
		}
	}
}

// Close flushes everything already queued and unblocks every submitter.
func TestCloseDrains(t *testing.T) {
	f := &fakeBatch{name: "m", delay: time.Millisecond}
	s := New(Config{MaxBatch: 4, MaxWait: 50 * time.Millisecond, Obs: obs.NewRegistry()}, f)

	const n = 30
	var served, failed atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := s.Submit(context.Background(), "m", req(Interactive, i))
			switch {
			case err == nil:
				served.Add(1)
			case errors.Is(err, ErrClosed):
				failed.Add(1)
			default:
				t.Errorf("submit %d: %v", i, err)
			}
		}(i)
	}
	time.Sleep(5 * time.Millisecond)
	s.Close()
	wg.Wait()
	if got := served.Load() + failed.Load(); got != n {
		t.Errorf("accounted for %d of %d submitters", got, n)
	}
	if served.Load() == 0 {
		t.Error("close served nothing that was already queued")
	}
	s.Close() // idempotent
}

func TestClassContextAndParse(t *testing.T) {
	if got := ClassFrom(context.Background()); got != Interactive {
		t.Errorf("default class %v", got)
	}
	ctx := WithClass(context.Background(), Batch)
	if got := ClassFrom(ctx); got != Batch {
		t.Errorf("class from ctx %v", got)
	}
	if got := ClassFrom(context.WithoutCancel(ctx)); got != Batch {
		t.Errorf("class lost across WithoutCancel: %v", got)
	}
	for in, want := range map[string]Class{"": Interactive, "interactive": Interactive, "batch": Batch} {
		got, err := ParseClass(in)
		if err != nil || got != want {
			t.Errorf("ParseClass(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseClass("bulk"); err == nil {
		t.Error("bad class accepted")
	}
	if Interactive.String() != "interactive" || Batch.String() != "batch" {
		t.Error("class names wrong")
	}
}

package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
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
// signals each batch's arrival and blocks on a gate before serving, and
// answers each request with its gold text.
type fakeBatch struct {
	name    string
	entered chan int      // when non-nil, receives each batch's size as GenerateBatch starts
	gate    chan struct{} // when non-nil, one receive per batch before serving
	delay   time.Duration // per-batch service time

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
	if f.entered != nil {
		select {
		case f.entered <- len(reqs):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
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

// awaitBatch returns the size of the next batch to enter GenerateBatch.
func (f *fakeBatch) awaitBatch(t *testing.T) int {
	t.Helper()
	select {
	case n := <-f.entered:
		return n
	case <-time.After(5 * time.Second):
		t.Fatal("no batch reached the model")
		return 0
	}
}

// release lets the held batch through, then each batch after it until
// items more requests have entered GenerateBatch, and returns the sizes of
// those batches.
func (f *fakeBatch) release(t *testing.T, items int) []int {
	t.Helper()
	f.gate <- struct{}{}
	var sizes []int
	for items > 0 {
		n := f.awaitBatch(t)
		sizes = append(sizes, n)
		items -= n
		f.gate <- struct{}{}
	}
	return sizes
}

// waitUntil spins until cond holds: a wait on a state, not on a guess of
// how long reaching it takes.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		runtime.Gosched()
	}
}

// submitted reports whether s has accepted n submissions.
func submitted(s *Scheduler, n int) func() bool {
	return func() bool { return s.Stats().Submitted == int64(n) }
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
	f := &fakeBatch{name: "m", entered: make(chan int), gate: make(chan struct{})}
	s := New(Config{
		MaxBatch: 5,
		Obs:      obs.NewRegistry(),
	}, f)
	defer s.Close()

	// Park the dispatcher on a first sacrificial batch so the real
	// traffic accumulates as backlog behind it.
	bctx := WithClass(context.Background(), Batch)
	ictx := WithClass(context.Background(), Interactive)
	go s.Submit(bctx, "m", req(Batch, 999))
	f.awaitBatch(t) // dispatcher now blocked on the gate

	const n = 40
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) { defer wg.Done(); s.Submit(ictx, "m", req(Interactive, i)) }(i)
		wg.Add(1)
		go func(i int) { defer wg.Done(); s.Submit(bctx, "m", req(Batch, i)) }(i)
	}
	waitUntil(t, "every submitter enqueued", submitted(s, 2*n+1))

	f.release(t, 2*n) // the sacrificial batch, then the backlog
	wg.Wait()

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
	// Build a standing backlog: every producer has been round several times.
	waitUntil(t, "the producers are looping", func() bool { return s.Stats().Submitted >= 32 })

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

// On an idle tier a lone submit reaches the model at once, as a batch of
// one: nothing holds it for cohort-mates. Whatever arrives while that batch
// runs queues behind it and rides the next flushes, MaxBatch at a time.
func TestIdleTierDispatchesAtOnce(t *testing.T) {
	const maxBatch = 4
	for _, k := range []int{1, maxBatch - 1, maxBatch, 2*maxBatch + 1} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			f := &fakeBatch{name: "m", entered: make(chan int), gate: make(chan struct{})}
			s := New(Config{MaxBatch: maxBatch, Obs: obs.NewRegistry()}, f)
			defer s.Close()

			var wg sync.WaitGroup
			submit := func(i int) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := s.Submit(context.Background(), "m", req(Interactive, i)); err != nil {
						t.Errorf("submit %d: %v", i, err)
					}
				}()
			}
			submit(0)
			if got := f.awaitBatch(t); got != 1 {
				t.Fatalf("a lone submit reached the model in a batch of %d, want 1", got)
			}
			for i := 1; i <= k; i++ {
				submit(i)
			}
			waitUntil(t, "every submit queued behind the held batch", submitted(s, 1+k))
			sizes := f.release(t, k)
			wg.Wait()
			var want []int
			for left := k; left > 0; left -= maxBatch {
				want = append(want, min(left, maxBatch))
			}
			if fmt.Sprint(sizes) != fmt.Sprint(want) {
				t.Errorf("%d submits queued behind a held batch flushed as %v, want %v", k, sizes, want)
			}
		})
	}
}

// Natural batching keeps the batched path's p50 latency within 2× of the
// direct unbatched path under light load.
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
		Obs:      obs.NewRegistry(),
	}, paced)
	defer s.Close()
	// Warm-up, untimed.
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
	t.Logf("p50 direct=%v scheduled=%v", dp, sp)
	if sp > 2*dp {
		t.Errorf("light-load p50 %v exceeds 2× the unbatched p50 %v", sp, dp)
	}
}

// A submitter whose context dies while queued stops waiting, and its
// item is dropped from the flush instead of billed into the batch.
func TestSubmitCancellation(t *testing.T) {
	f := &fakeBatch{name: "m", entered: make(chan int), gate: make(chan struct{})}
	s := New(Config{MaxBatch: 4, Obs: obs.NewRegistry()}, f)
	defer s.Close()

	// Park the dispatcher, then queue an item and cancel it.
	go s.Submit(context.Background(), "m", req(Interactive, 0))
	f.awaitBatch(t)

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := s.Submit(ctx, "m", req(Interactive, 1))
		errc <- err
	}()
	waitUntil(t, "the second item queued", submitted(s, 2))
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled submitter got %v", err)
	}

	// Release the parked batch; the canceled item's flush never reaches
	// the model, so no further gate sends are needed.
	f.gate <- struct{}{}
	waitUntil(t, "the canceled item was dropped", func() bool { return s.Stats().Canceled == 1 })
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
	s := New(Config{MaxBatch: 4, Obs: obs.NewRegistry()}, f)

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
	waitUntil(t, "every submitter enqueued", submitted(s, n))
	s.Close()
	wg.Wait()
	if got := served.Load() + failed.Load(); got != n {
		t.Errorf("accounted for %d of %d submitters", got, n)
	}
	if served.Load() != n {
		t.Errorf("close served %d of the %d already queued", served.Load(), n)
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

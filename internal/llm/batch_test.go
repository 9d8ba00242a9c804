package llm

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/token"
)

func batchTestModel() *SimModel {
	return NewSim(SimConfig{
		Name:       "batch-test",
		Capability: 0.85,
		Price:      token.Price{InputPer1K: 1000, OutputPer1K: 2000},
		Obs:        obs.NewRegistry(),
	})
}

func batchReqs(n int) []Request {
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{
			Task:       TaskQA,
			Prompt:     fmt.Sprintf("question number %d about stadium capacities", i),
			Gold:       fmt.Sprintf("answer %d", i),
			Wrong:      "not sure",
			Difficulty: 0.3,
		}
	}
	return reqs
}

// A batched call must bill exactly like the same requests served one at a
// time, and must answer each item identically (same noise streams).
func TestGenerateBatchMatchesSequentialBillingAndAnswers(t *testing.T) {
	ctx := context.Background()
	reqs := batchReqs(12)

	seq := batchTestModel()
	var seqResps []Response
	for _, r := range reqs {
		resp, err := seq.Complete(ctx, r)
		if err != nil {
			t.Fatal(err)
		}
		seqResps = append(seqResps, resp)
	}

	bat := batchTestModel()
	batResps, err := bat.GenerateBatch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(batResps) != len(reqs) {
		t.Fatalf("got %d responses for %d requests", len(batResps), len(reqs))
	}
	var sum token.Cost
	for i := range reqs {
		if batResps[i].Text != seqResps[i].Text || batResps[i].Correct != seqResps[i].Correct {
			t.Errorf("item %d: batch answer %q/%v, sequential %q/%v",
				i, batResps[i].Text, batResps[i].Correct, seqResps[i].Text, seqResps[i].Correct)
		}
		if batResps[i].Cost != seqResps[i].Cost {
			t.Errorf("item %d: batch cost %v, sequential %v", i, batResps[i].Cost, seqResps[i].Cost)
		}
		sum += batResps[i].Cost
	}
	if got := bat.Meter().Spend; got != sum {
		t.Errorf("meter spend %v, sum of per-item costs %v", got, sum)
	}
	if seqSpend := seq.Meter().Spend; bat.Meter().Spend != seqSpend {
		t.Errorf("batch meter %v, sequential meter %v", bat.Meter().Spend, seqSpend)
	}
}

// Batched latency must be sub-linear: far below the sequential sum, and
// equal across all items of the batch.
func TestGenerateBatchLatencySubLinear(t *testing.T) {
	ctx := context.Background()
	m := batchTestModel()
	reqs := batchReqs(16)

	var seqSum time.Duration
	var maxItem time.Duration
	for _, r := range reqs {
		resp, err := m.Complete(ctx, r)
		if err != nil {
			t.Fatal(err)
		}
		seqSum += resp.Latency
		if resp.Latency > maxItem {
			maxItem = resp.Latency
		}
	}
	resps, err := m.GenerateBatch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	lat := resps[0].Latency
	for i, r := range resps {
		if r.Latency != lat {
			t.Errorf("item %d latency %v differs from batch latency %v", i, r.Latency, lat)
		}
	}
	if lat < maxItem {
		t.Errorf("batch latency %v below longest item %v", lat, maxItem)
	}
	if lat*2 >= seqSum {
		t.Errorf("batch latency %v not sub-linear vs sequential sum %v", lat, seqSum)
	}
	want := BatchLatency(maxItem, len(reqs), DefaultBatchOverhead)
	if lat != want {
		t.Errorf("batch latency %v, want %v", lat, want)
	}
}

func TestGenerateBatchValidation(t *testing.T) {
	m := batchTestModel()
	if resps, err := m.GenerateBatch(context.Background(), nil); err != nil || resps != nil {
		t.Errorf("empty batch: %v %v", resps, err)
	}
	if _, err := m.GenerateBatch(context.Background(), []Request{{Prompt: ""}}); !errors.Is(err, ErrEmptyPrompt) {
		t.Errorf("empty prompt accepted: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.GenerateBatch(ctx, batchReqs(2)); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled ctx accepted: %v", err)
	}
}

// The paced wrapper must serialize calls on its lane and actually spend
// wall clock, with a batched call far cheaper than sequential calls. Its
// sleeps never end before the scaled latency, end close after it, and give
// way to a canceled context without leaving an fd open.
func TestPacedWallClock(t *testing.T) {
	ctx := context.Background()
	m := batchTestModel()
	reqs := batchReqs(8)

	// Calibrate: simulated latencies are deterministic.
	sim, err := m.GenerateBatch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	batchSim := sim[0].Latency
	one, err := m.Complete(ctx, reqs[0])
	if err != nil {
		t.Fatal(err)
	}

	const scale = 500
	p := NewPaced(m, scale)
	if p.Name() != m.Name() || p.inner != BatchModel(m) {
		t.Fatal("paced does not delegate identity")
	}

	start := time.Now()
	resps, err := p.GenerateBatch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != len(reqs) {
		t.Fatalf("got %d responses", len(resps))
	}
	if elapsed := time.Since(start); elapsed < batchSim/scale {
		t.Errorf("paced batch returned in %v, below scaled simulated %v", elapsed, batchSim/scale)
	}

	// A call scaled to about 1.3ms wakes within 300µs of its billed latency
	// (median of 21 calls); a runtime timer overshoots it by ~880µs in an
	// otherwise idle process.
	tier := NewPaced(m, float64(one.Latency)/float64(1300*time.Microsecond))
	want := tier.scaled(one.Latency)
	over := make([]time.Duration, 21)
	for i := range over {
		start := time.Now()
		if _, err := tier.Complete(ctx, reqs[0]); err != nil {
			t.Fatal(err)
		}
		over[i] = time.Since(start) - want
		if over[i] < 0 {
			t.Errorf("paced call returned %v before its scaled latency %v", -over[i], want)
		}
	}
	slices.Sort(over)
	if med := over[len(over)/2]; med >= 300*time.Microsecond {
		t.Errorf("paced %v call overshoots by %v (median of %d), want < 300µs", want, med, len(over))
	}

	// A canceled context interrupts the paced sleep.
	slow := NewPaced(m, 1) // real time: seconds of simulated latency
	cancelled := func() {
		t.Helper()
		cctx, cancel := context.WithTimeout(ctx, time.Millisecond)
		defer cancel()
		start := time.Now()
		if _, err := slow.Complete(cctx, reqs[0]); !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("paced ignored deadline: %v", err)
		}
		if elapsed := time.Since(start); elapsed > 50*time.Millisecond {
			t.Errorf("paced call canceled after 1ms returned after %v", elapsed)
		}
	}
	cancelled()

	// Neither a finished nor a canceled sleep leaves its timerfd open.
	if runtime.GOOS == "linux" {
		fds := func() int {
			t.Helper()
			ents, err := os.ReadDir("/proc/self/fd")
			if err != nil {
				t.Fatal(err)
			}
			return len(ents)
		}
		before := fds()
		for i := 0; i < 100; i++ {
			cancelled()
			if _, err := tier.Complete(ctx, reqs[0]); err != nil {
				t.Fatal(err)
			}
		}
		if after := fds(); after != before {
			t.Errorf("%d open fds after 200 paced calls, %d before", after, before)
		}
	}

	// No sleep ends early on either path, however short; and the
	// runtime-timer fallback also ends promptly on a canceled context.
	for name, sleep := range map[string]func(context.Context, time.Duration) error{
		"sleepCtx": sleepCtx, "timerSleep": timerSleep,
	} {
		for _, d := range []time.Duration{2 * time.Microsecond, 50 * time.Microsecond, want} {
			for i := 0; i < 5; i++ {
				start := time.Now()
				if err := sleep(ctx, d); err != nil {
					t.Fatal(err)
				}
				if elapsed := time.Since(start); elapsed < d {
					t.Errorf("%s(%v) returned after %v", name, d, elapsed)
				}
			}
		}
	}
	cctx, cancel := context.WithTimeout(ctx, time.Millisecond)
	defer cancel()
	start = time.Now()
	if err := timerSleep(cctx, one.Latency); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("timerSleep ignored deadline: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 50*time.Millisecond {
		t.Errorf("timerSleep canceled after 1ms returned after %v", elapsed)
	}
}

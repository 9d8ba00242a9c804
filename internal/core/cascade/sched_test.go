package cascade

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/llm"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/token"
)

func schedOver(f llm.Family) *sched.Scheduler {
	batchables := make([]llm.BatchModel, len(f))
	for i, m := range f {
		// Paced, a tier is busy for the length of each call, so
		// concurrent cascades queue behind the batch in flight and share
		// the next one: the scheduler never holds a request to batch it.
		batchables[i] = llm.NewPaced(m, 1000)
	}
	return sched.New(sched.Config{
		MaxBatch: 8,
		Obs:      obs.NewRegistry(),
	}, batchables...)
}

// A cascade routed through the scheduler must behave exactly like the
// direct cascade — same answers, same escalations, same per-trace costs
// — and the summed trace costs must match the family meters.
func TestCascadeThroughSchedulerMatchesDirect(t *testing.T) {
	reqs := []llm.Request{
		{Prompt: "label this obvious case", Gold: "yes", Difficulty: 0.02},
		{Prompt: "a very hard multi hop question", Gold: "g", Wrong: "w", Difficulty: 0.9},
		{Prompt: "a middling question about joins", Gold: "g", Wrong: "w", Difficulty: 0.5},
	}

	direct := New(Threshold{0.6}, family().Models()...)
	var wantResp []llm.Response
	var wantCost []token.Cost
	for _, r := range reqs {
		resp, tr, err := direct.Complete(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		wantResp = append(wantResp, resp)
		wantCost = append(wantCost, tr.TotalCost)
	}

	f := family()
	s := schedOver(f)
	defer s.Close()
	c := New(Threshold{0.6}, f.Models()...)
	c.Sched = s
	var total token.Cost
	for i, r := range reqs {
		resp, tr, err := c.Complete(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Text != wantResp[i].Text || resp.Model != wantResp[i].Model {
			t.Errorf("req %d: scheduled answer %q from %s, direct %q from %s",
				i, resp.Text, resp.Model, wantResp[i].Text, wantResp[i].Model)
		}
		if tr.TotalCost != wantCost[i] {
			t.Errorf("req %d: scheduled cost %v, direct %v", i, tr.TotalCost, wantCost[i])
		}
		total += tr.TotalCost
	}
	if got := f.TotalSpend(); got != total {
		t.Errorf("family meters %v, trace costs sum to %v", got, total)
	}
	if s.Stats().BatchedItems == 0 {
		t.Error("no cascade step went through the scheduler")
	}
}

// Concurrent cascades share scheduler batches, and a closed scheduler
// degrades to direct model calls instead of failing requests.
func TestConcurrentCascadesShareBatchesAndSurviveClose(t *testing.T) {
	f := family()
	s := schedOver(f)
	c := New(Threshold{0.6}, f.Models()...)
	c.Sched = s

	const n = 40
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, err := c.Complete(context.Background(), llm.Request{
				Prompt: "concurrent question", Gold: "g", Wrong: "w", Difficulty: 0.3,
			})
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	st := s.Stats()
	if st.Batches >= st.BatchedItems {
		t.Errorf("no sharing: %d batches for %d items", st.Batches, st.BatchedItems)
	}

	s.Close()
	resp, _, err := c.Complete(context.Background(), llm.Request{
		Prompt: "after close", Gold: "g", Difficulty: 0.1,
	})
	if err != nil {
		t.Fatalf("cascade failed after scheduler close: %v", err)
	}
	if resp.Text != "g" {
		t.Errorf("post-close answer %q", resp.Text)
	}
	if _, err := s.Submit(context.Background(), llm.NameSmall, llm.Request{Prompt: "x"}); !errors.Is(err, sched.ErrClosed) {
		t.Errorf("closed scheduler submit: %v", err)
	}
}

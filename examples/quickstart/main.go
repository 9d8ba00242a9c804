// Quickstart: the five-minute tour — build a client, run the Figure 1
// pipeline end to end, translate one NL question to SQL, answer one
// question through the LLM cascade, and serve concurrent traffic through
// the batching proxy.
package main

import (
	"context"
	"fmt"
	"log"
	"sync"

	llmdm "repro"
	"repro/internal/llm"
	"repro/internal/workload"
)

func main() {
	ctx := context.Background()
	client := llmdm.NewClient(llmdm.WithMetricsRegistry(llmdm.NewMetricsRegistry()))

	// 1. The whole Figure 1 pipeline in one call.
	fmt.Println("— pipeline (generation → transformation → integration → exploration) —")
	stages, err := client.Pipeline(ctx)
	if err != nil {
		log.Fatal(err)
	}
	for _, s := range stages {
		fmt.Printf("  %-14s %-14s %s\n", s.Stage, s.Metric, s.Value)
	}

	// 2. NL2SQL: one question, translated and executed.
	fmt.Println("\n— NL2SQL —")
	tr, err := client.Translator(llmdm.ModelLarge)
	if err != nil {
		log.Fatal(err)
	}
	question := "Show the names of stadiums that had the most number of concerts in 2014?"
	sql, _, err := tr.Translate(ctx, question)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("  Q:  ", question)
	fmt.Println("  SQL:", sql)
	res, err := llmdm.ConcertDB(1).Exec(sql)
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range res.Rows {
		fmt.Println("  ->  ", row[0].Display())
	}

	// 3. The LLM cascade: cheap model first, escalate only when unsure.
	fmt.Println("\n— LLM cascade —")
	set := workload.GenQA(3, 4)
	casc := client.Cascade(0.62)
	for _, it := range set.Items {
		resp, trace, err := casc.Complete(ctx, llm.Request{
			Task:       llm.TaskQA,
			Prompt:     "Context: " + it.ContextFor() + "\nQ: " + it.Question,
			Gold:       it.Answer,
			Wrong:      it.Distractor,
			Difficulty: it.Difficulty,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-70s -> %-18s (answered by %s after %d escalation(s), %s)\n",
			it.Question, resp.Text, resp.Model, trace.Escalations(), trace.TotalCost)
	}

	// 4. The serving proxy, configured with functional options: semantic
	// cache + cascade + micro-batching scheduler. Concurrent
	// requests to the same tier share batches; bulk traffic is marked
	// with PriorityBatch so it cannot crowd out interactive requests.
	fmt.Println("\n— serving proxy (cache + cascade + micro-batching) —")
	p := client.Proxy(
		llmdm.WithCacheCapacity(1000),
		llmdm.WithCascadeThreshold(0.62),
		llmdm.WithScheduler(llmdm.SchedulerConfig{}),
		llmdm.WithResilience(llmdm.ResilienceConfig{MaxConcurrent: 64, MaxQueue: 64}),
	)
	defer p.Close()
	bulkCtx := llmdm.WithPriority(ctx, llmdm.PriorityBatch)
	var wg sync.WaitGroup
	for i, it := range workload.GenQA(9, 16).Items {
		wg.Add(1)
		go func(i int, it workload.QAItem) {
			defer wg.Done()
			reqCtx := ctx
			if i%2 == 1 { // odd requests are bulk traffic
				reqCtx = bulkCtx
			}
			if _, err := p.Complete(reqCtx, llm.Request{
				Task:       llm.TaskQA,
				Prompt:     "Context: " + it.ContextFor() + "\nQ: " + it.Question,
				Gold:       it.Answer,
				Wrong:      it.Distractor,
				Difficulty: it.Difficulty,
			}); err != nil {
				log.Fatal(err)
			}
		}(i, it)
	}
	wg.Wait()
	st := p.Stats()
	fmt.Printf("  served %d requests (%d model calls, %s total)\n", st.Requests, st.ModelCalls, st.Spend)
	if ss, ok := p.SchedStats(); ok {
		fmt.Printf("  scheduler: %d submitted across %d batches\n", ss.Submitted, ss.Batches)
	}

	fmt.Printf("\ntotal spend this session: %s\n", client.Spend())
}

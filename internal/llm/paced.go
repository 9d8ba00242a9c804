package llm

import (
	"context"
	"time"
)

// Paced wraps a BatchModel in real wall-clock pacing: every call holds the
// model's single execution lane (one simulated GPU) and sleeps the
// simulated latency divided by Scale before returning. The wrapped family
// thereby exhibits the timing behavior a real inference server has —
// sequential calls serialize on the lane, while one batched call pays the
// sub-linear batch latency once for all its items — which is exactly the
// property the micro-batching scheduler exploits and the bench-sched
// benchmark measures.
//
// The lane holder wakes when the scaled latency is up. On Linux it reads a
// one-shot timerfd the netpoller watches, so a sleep ends within tens of
// microseconds of its deadline, never before it; a runtime timer in an
// idle process waits in whole-millisecond epoll_wait steps, which held a
// 1.28ms tier for about 2.2ms. Elsewhere, or when the kernel refuses a
// timerfd, it waits on a runtime timer.
//
// Billing and adjudication are delegated unchanged to the inner model, so
// usage meters stay exact. Paced is safe for concurrent use.
type Paced struct {
	inner BatchModel
	scale float64
	lane  chan struct{}
}

// NewPaced wraps inner. scale divides the simulated latency to get the
// real sleep (e.g. 1000 turns a simulated 125ms call into 125µs of wall
// clock); scale <= 0 means 1 (real time).
func NewPaced(inner BatchModel, scale float64) *Paced {
	if scale <= 0 {
		scale = 1
	}
	return &Paced{inner: inner, scale: scale, lane: make(chan struct{}, 1)}
}

// Name implements Model.
func (p *Paced) Name() string { return p.inner.Name() }

func (p *Paced) acquire(ctx context.Context) error {
	select {
	case p.lane <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (p *Paced) release() { <-p.lane }

// sleepCtx sleeps d or returns early with ctx's error.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		// Also what sleep relies on: a timerfd armed with zero is disarmed.
		return ctx.Err()
	}
	return sleep(ctx, d)
}

// timerSleep is sleep on a runtime timer: the portable path, and the
// fallback where a timerfd cannot be had.
func timerSleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Complete implements Model: one item, one lane hold, one scaled sleep.
func (p *Paced) Complete(ctx context.Context, req Request) (Response, error) {
	if err := p.acquire(ctx); err != nil {
		return Response{}, err
	}
	defer p.release()
	resp, err := p.inner.Complete(ctx, req)
	if err != nil {
		return resp, err
	}
	if err := sleepCtx(ctx, p.scaled(resp.Latency)); err != nil {
		// The call was already billed; the caller just stopped waiting.
		return Response{}, err
	}
	return resp, nil
}

// GenerateBatch implements BatchModel: the whole batch holds the lane once
// and sleeps the sub-linear batch latency once.
func (p *Paced) GenerateBatch(ctx context.Context, reqs []Request) ([]Response, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	if err := p.acquire(ctx); err != nil {
		return nil, err
	}
	defer p.release()
	resps, err := p.inner.GenerateBatch(ctx, reqs)
	if err != nil {
		return nil, err
	}
	if err := sleepCtx(ctx, p.scaled(resps[0].Latency)); err != nil {
		return nil, err
	}
	return resps, nil
}

func (p *Paced) scaled(d time.Duration) time.Duration {
	return time.Duration(float64(d) / p.scale)
}

// Fixture: goroutines with provable exits are accepted — select with a
// ctx.Done or stop arm, select with default, buffered-slot sends, stop-
// family receives, timer channels, and clean summarized callees.
//
//llmdm:pkgpath repro/internal/proxy
package fixture

import "context"

type ticker struct{ C chan int }

type worker struct {
	stop    chan struct{}
	results chan int
}

func newWorker() *worker {
	return &worker{
		stop:    make(chan struct{}),
		results: make(chan int, 16),
	}
}

func selectWithDone(ctx context.Context, ch chan int) {
	go func() {
		select {
		case ch <- 1:
		case <-ctx.Done():
		}
	}()
}

func selectWithStopArm(w *worker, ch chan int) {
	go func() {
		for {
			select {
			case v := <-ch:
				_ = v
			case <-w.stop:
				return
			}
		}
	}()
}

func selectWithDefault(ch chan int) {
	go func() {
		select {
		case ch <- 1:
		default:
		}
	}()
}

// results is observed buffered in this package: the send completes.
func bufferedSend(w *worker) {
	go func() {
		w.results <- 7
	}()
}

func stopFamilyRecv(w *worker) {
	go func() {
		<-w.stop
	}()
}

func timerRecv(tk *ticker) {
	go func() {
		<-tk.C
	}()
}

// A buffered channel of empty structs is a counting semaphore: the
// receive gives back the slot this goroutine's own send took.
type limiter struct{ slots chan struct{} }

func newLimiter() *limiter { return &limiter{slots: make(chan struct{}, 4)} }

func (l *limiter) release() { <-l.slots }

func semaphoreRelease(l *limiter) {
	go func() {
		l.slots <- struct{}{}
		l.release()
	}()
}

func closeNeverBlocks(ch chan int) {
	go func() {
		close(ch)
	}()
}

// drain's summary is clean (guarded select), so spawning it is too.
func drain(ctx context.Context, ch chan int) {
	for {
		select {
		case <-ch:
		case <-ctx.Done():
			return
		}
	}
}

func namedClean(ctx context.Context, ch chan int) {
	go drain(ctx, ch)
}

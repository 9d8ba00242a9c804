// Fixture: calls under a lock into summarized callees that are fine —
// a callee that does no blocking work, and a callee whose blocking op
// carries its own //llmdm:allow lockscope justification (the waiver
// covers interprocedural callers too).
package fixture

import "sync"

type registry struct {
	mu    sync.Mutex
	seen  map[string]int
	queue chan string
}

func (r *registry) bump(name string) {
	r.seen[name]++
}

func (r *registry) enqueueBounded(name string) {
	//llmdm:allow lockscope bounded enqueue, capacity proven by the admission gate
	r.queue <- name
}

func recordUnderLock(r *registry, name string) {
	r.mu.Lock()
	r.bump(name)
	r.mu.Unlock()
}

func enqueueUnderLock(r *registry, name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.enqueueBounded(name)
}

func (r *registry) drain() {
	r.queue <- ""
}

// A deferred call runs at function exit, not where it is deferred:
// lockscope leaves deferred calls alone, as it does the deferred Unlock.
func drainAfterUnlock(r *registry, wg *sync.WaitGroup) {
	r.mu.Lock()
	defer r.mu.Unlock()
	defer r.drain()
	defer wg.Wait()
	r.seen["drain"]++
}

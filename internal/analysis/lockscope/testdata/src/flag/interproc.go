// Fixture: calls under a lock into functions whose summaries block —
// one call-graph level deep, the same serialization bug one frame down.
package fixture

import (
	"sync"
	"time"

	clock "time"
)

type store struct {
	mu  sync.Mutex
	out chan int
}

func (st *store) flushSlowly() {
	time.Sleep(time.Millisecond)
}

func (st *store) publish(v int) {
	st.out <- v
}

func callsSleeperUnderLock(st *store) {
	st.mu.Lock()
	st.flushSlowly() // want "blocking call into fixture\.store\.flushSlowly \(which does time\.Sleep\)"
	st.mu.Unlock()
}

func callsSenderUnderLock(st *store, v int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.publish(v) // want "blocking call into fixture\.store\.publish \(which does channel send\)"
}

// The blocking op is behind an interface: only the implementation's
// summary shows it.
type flusher interface{ flush() }

func (st *store) flush() {
	time.Sleep(time.Millisecond)
}

func callsThroughInterfaceUnderLock(st *store, f flusher) {
	st.mu.Lock()
	f.flush() // want "blocking call into fixture\.store\.flush \(which does time\.Sleep\)"
	st.mu.Unlock()
}

// A promoted method is the embedded type's declaration.
type base struct{ out chan int }

func (b *base) emit(v int) { b.out <- v }

type derived struct {
	base
	mu sync.Mutex
}

func callsPromotedUnderLock(d *derived) {
	d.mu.Lock()
	d.emit(1) // want "blocking call into fixture\.base\.emit \(which does channel send\)"
	d.mu.Unlock()
}

// An exit arm keeps a goroutine from parking forever, but without a
// default the select still waits for one arm — under the caller's lock.
func (st *store) publishOrQuit(v int, done chan struct{}) {
	select {
	case st.out <- v:
	case <-done:
	}
}

func callsGuardedSelectUnderLock(st *store, v int, done chan struct{}) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.publishOrQuit(v, done) // want "blocking call into fixture\.store\.publishOrQuit"
}

// time.Sleep is time.Sleep under any import name.
func sleepsUnderRenamedImport(st *store) {
	st.mu.Lock()
	defer st.mu.Unlock()
	clock.Sleep(clock.Millisecond) // want "blocking time\.Sleep while st\.mu"
}

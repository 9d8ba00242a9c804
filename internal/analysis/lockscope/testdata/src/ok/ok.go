// Fixture: the accepted shapes — unlock before blocking, non-blocking
// select with default, goroutine bodies as separate units, branch-merged
// releases, and the //llmdm:allow waiver.
package fixture

import (
	"sync"
	"time"
)

type server struct {
	mu     sync.Mutex
	ch     chan int
	m      map[string]int
	closed bool
}

func unlockThenSend(s *server) {
	s.mu.Lock()
	s.m["k"] = 1
	s.mu.Unlock()
	s.ch <- 1
}

func nonBlockingTrySend(s *server) {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case s.ch <- 1:
	default:
	}
}

// The spawn itself never blocks, and the goroutine body runs without the
// lock — it is analyzed as its own unit.
func spawnUnderLock(s *server) {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() {
		s.ch <- 1
	}()
}

// Every select arm releases before its blocking work; after the merge no
// lock is held.
func armsRelease(s *server, done chan struct{}) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.m["k"] = 1
	s.mu.Unlock()
	select {
	case s.ch <- 1:
	case <-done:
	}
}

// Deliberate, justified, and waived.
func annotatedSend(s *server) {
	s.mu.Lock()
	s.ch <- 1 //llmdm:allow lockscope bounded enqueue under the close gate is the design
	s.mu.Unlock()
}

// A local that shadows an imported package is not the package: this
// Sleep is a method of pacer and returns at once.
type pacer struct{ tick time.Duration }

func (pacer) Sleep(n int) {}

func shadowedPackageName(s *server) {
	time := pacer{}
	s.mu.Lock()
	time.Sleep(1)
	s.mu.Unlock()
}

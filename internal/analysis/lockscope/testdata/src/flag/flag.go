// Fixture: blocking operations inside critical sections are reported —
// including on the main path after an early-return unlock guard, the
// shape a source-order scanner would miss.
package fixture

import (
	"net/http"
	"sync"
	"time"
)

type server struct {
	mu     sync.Mutex
	rw     sync.RWMutex
	ch     chan int
	closed bool
	model  completer
	wg     sync.WaitGroup
}

type completer interface{ Complete(int) int }

func sendUnderLock(s *server) {
	s.mu.Lock()
	s.ch <- 1 // want "blocking channel send while s\.mu"
	s.mu.Unlock()
}

func receiveUnderLock(s *server) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return <-s.ch // want "blocking channel receive while s\.mu"
}

func sleepUnderDeferredUnlock(s *server) {
	s.mu.Lock()
	defer s.mu.Unlock()
	time.Sleep(time.Millisecond) // want "blocking time\.Sleep while s\.mu"
}

func modelCallUnderRLock(s *server) {
	s.rw.RLock()
	s.model.Complete(1) // want "blocking model call \.Complete while s\.rw"
	s.rw.RUnlock()
}

func waitUnderLock(s *server) {
	s.mu.Lock()
	s.wg.Wait() // want "blocking s\.wg\.Wait\(\) while s\.mu"
	s.mu.Unlock()
}

func httpUnderLock(s *server) {
	s.mu.Lock()
	defer s.mu.Unlock()
	http.Get("http://example.invalid") // want "blocking net/http call http\.Get while s\.mu"
}

// A mutex in a local never enters the global lock graph, but the
// critical section it guards is just as real.
func sendUnderLocalLock(ch chan int) {
	var mu sync.Mutex
	mu.Lock()
	ch <- 1 // want "blocking channel send while mu \(locked at line 63\) held"
	mu.Unlock()
}

// The guard branch unlocks and returns; the main path still holds the
// lock at the select — branch-sensitive tracking must not let the
// guard's release mask it.
func guardedSendUnderLock(s *server, done chan struct{}) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	select {
	case s.ch <- 1: // want "blocking channel send while s\.mu"
		s.mu.Unlock()
	case <-done: // want "blocking channel receive while s\.mu"
		s.mu.Unlock()
	}
}

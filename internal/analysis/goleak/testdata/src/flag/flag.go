// Fixture: serving-path goroutines parked forever on a channel op with
// no guaranteed counterpart — directly, in a managed-spawn literal, and
// through a summarized callee.
//
//llmdm:pkgpath repro/internal/proxy
package fixture

import "repro/internal/obs"

func directSend(ch chan int) {
	go func() {
		ch <- 1 // want "park forever"
	}()
}

func directRecv(data chan int) {
	go func() {
		v := <-data // want "park forever"
		_ = v
	}()
}

func managedSpawnLeaks(ch chan int) {
	obs.Go(nil, "pump", func() {
		ch <- 2 // want "park forever"
	})
}

// pump's summary carries the unguarded send; the goroutine inherits it.
func pump(ch chan int) {
	ch <- 3
}

func throughCallee(ch chan int) {
	go func() {
		pump(ch) // want "no guaranteed counterpart"
	}()
}

func namedTarget(ch chan int) {
	go leakyLoop(ch) // want "no guaranteed counterpart"
}

func leakyLoop(ch chan int) {
	for {
		ch <- 4
	}
}

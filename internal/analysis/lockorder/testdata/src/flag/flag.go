// Fixture: lock-order cycles and call-chain re-acquisition inside one
// package. The analyzer sees the second acquire through the callee's
// summary, not the caller's body — a per-function scanner cannot.
package fixture

import "sync"

type A struct{ mu sync.Mutex }

type B struct{ mu sync.Mutex }

func lockB(b *B) {
	b.mu.Lock()
	defer b.mu.Unlock()
}

func lockA(a *A) {
	a.mu.Lock()
	defer a.mu.Unlock()
}

// aThenB and bThenA acquire the two locks in opposite orders: a cycle.
func aThenB(a *A, b *B) {
	a.mu.Lock()
	defer a.mu.Unlock()
	lockB(b) // want "lock-order cycle"
}

func bThenA(a *A, b *B) {
	b.mu.Lock()
	defer b.mu.Unlock()
	lockA(a)
}

// reacquire calls back into a function that takes the lock the caller
// still holds: a single-goroutine self-deadlock.
func reacquire(a *A) {
	a.mu.Lock()
	defer a.mu.Unlock()
	lockA(a) // want "lock self-cycle"
}

// The second lock is behind an interface: D.mu is held across a call
// that only C's implementation shows to take C.mu, and cThenD takes
// them the other way round.
type C struct{ mu sync.Mutex }

type D struct{ mu sync.Mutex }

type cLocker interface{ lockC() }

func (c *C) lockC() {
	c.mu.Lock()
	defer c.mu.Unlock()
}

func dThenC(d *D, l cLocker) {
	d.mu.Lock()
	defer d.mu.Unlock()
	l.lockC() // want "lock-order cycle"
}

func cThenD(c *C, d *D) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d.mu.Lock()
	d.mu.Unlock()
}

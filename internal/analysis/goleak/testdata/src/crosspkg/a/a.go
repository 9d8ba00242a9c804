// Multi-package fixture, package a (serving path): the spawn sites are
// here; whether they leak is decided by package b's summaries.
//
//llmdm:pkgpath repro/internal/proxy
package fixture

import (
	"context"

	fixb "fixture/b"
)

func spawnLeaky(ch chan int) {
	go fixb.PumpForever(ch) // want "no guaranteed counterpart"
}

func spawnClean(ctx context.Context, ch chan int) {
	go fixb.PumpGuarded(ctx, ch)
}

// A loop variable named like the import is not the import: this
// PumpForever is quiet's method, which parks nowhere.
type quiet struct{}

func (quiet) PumpForever(ch chan int) {}

func spawnShadowed(ch chan int) {
	for _, fixb := range []quiet{{}} {
		go fixb.PumpForever(ch)
	}
}

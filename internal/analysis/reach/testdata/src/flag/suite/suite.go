// Package suite is a benchmark suite: main runs it, but what it uses of
// lib counts for nothing.
//
//llmdm:bench the fixture's benchmark suite
package suite

import "fixture/lib"

// Run is reached from main, and keeps measure, which only the suite calls.
func Run() { measure(lib.LibConfig{Set: 1, Tuned: 2}) }

func measure(cfg lib.LibConfig) { lib.OnlySuite(cfg) }

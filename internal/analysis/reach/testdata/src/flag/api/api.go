// Package api is a library: the waiver above its package clause makes its
// exported API a root.
//
//llmdm:allow reach the fixture's package-clause waiver
package api

// API is exported, so it is a root, and it keeps inner.
func API() { inner() }

// Unused is exported too.
func Unused() {}

func inner() {}

func orphan() {} // want "orphan is reached from no main"

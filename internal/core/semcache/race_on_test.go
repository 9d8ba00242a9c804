//go:build race

package semcache

const raceEnabled = true

//go:build race

package vector

const raceEnabled = true

//go:build !race

package llm

const raceEnabled = false

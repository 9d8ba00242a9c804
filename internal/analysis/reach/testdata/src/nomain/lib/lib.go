// Package lib would have findings in a program with a main.
package lib

// Unused is reached by nothing.
func Unused() {}

// LibConfig's field is written by nothing.
type LibConfig struct{ Unset int }

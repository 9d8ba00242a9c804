// Package cmd is a library too: this fixture has no main.
package cmd

import "fixture/lib"

func use() { lib.Unused() }

// Command main is the fixture's one entry point.
package main

import (
	"fmt"

	"fixture/api"
	"fixture/lib"
)

func main() {
	run(lib.ValueOnly) // reached only as a value
	var s lib.Shape = lib.NewSquare(2)
	fmt.Println(s.Area(), lib.Red)
	fmt.Println(lib.Double([]int{1, 2}), lib.Box[int]{V: 3}.Get())
	cfg := lib.LibConfig{Set: 1}
	lib.Start(cfg)
	api.API()
}

func run(f func()) { f() }

func unused() {} // want "unused is reached from no main"

// Command tree is a module small enough to lint in a test: clean, with
// one waived finding.
package main

import "tree/lib"

func main() { lib.Run() }

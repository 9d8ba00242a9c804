// Package lib holds what the fixture's main reaches, and what it does not.
package lib

// ValueOnly is never called by name: main passes it as a value.
func ValueOnly() {}

// Shape is an interface the program declares.
type Shape interface{ Area() float64 }

// Square implements Shape.
type Square struct{ side float64 }

// NewSquare returns a Square.
func NewSquare(side float64) *Square { return &Square{side} }

// Area is reached through Shape.
func (s *Square) Area() float64 { return s.side * s.side }

// Perimeter is a method no interface declares, and nothing calls it.
func (s *Square) Perimeter() float64 { return 4 * s.side } // want "Square.Perimeter is reached from no main"

// Color has a String method, which fmt reaches through fmt.Stringer.
type Color int

// Red is a Color constant.
const Red Color = 1

// String is reached by name: fmt.Stringer declares it.
func (c Color) String() string { return "red" }

// Double is a generic function.
func Double[T int | float64](xs []T) []T {
	out := make([]T, len(xs))
	for i, x := range xs {
		out[i] = 2 * x
	}
	return out
}

// Triple is a generic function nothing calls.
func Triple[T int | float64](x T) T { return 3 * x } // want "Triple is reached from no main"

// Box is a generic type.
type Box[T any] struct{ V T }

// Get is a method of a generic type.
func (b Box[T]) Get() T { return b.V }

// Kept is reached by no entry point, but its waiver makes it a root, and
// so keeps what it calls.
//
//llmdm:allow reach the fixture's declaration waiver
func Kept() { helper() }

func helper() {}

// LibConfig is a *Config struct: main sets Set; only lib sets Internal,
// and only the benchmark suite sets Tuned.
type LibConfig struct {
	Set      int
	Internal int // want "LibConfig.Internal is written by no reached code outside lib"
	Tuned    int // want "LibConfig.Tuned is written by no reached code outside lib"
	hidden   int
}

// OnlySuite is called by the benchmark suite alone.
func OnlySuite(cfg LibConfig) { _ = cfg } // want "OnlySuite is reached from no main"

// Start runs with cfg.
func Start(cfg LibConfig) {
	cfg.Internal = 3
	cfg.hidden = cfg.Set + cfg.Internal
}

package token

import "fmt"

// Cost is an amount of money in micro-dollars (1e-6 USD). Integer arithmetic
// keeps benchmark cost columns exact and reproducible; the paper reports API
// cost in dollars with three decimal places, which micro-dollars represent
// without rounding drift.
type Cost int64

// String renders the cost like the paper's tables, e.g. "$0.435".
func (c Cost) String() string {
	neg := ""
	v := int64(c)
	if v < 0 {
		neg = "-"
		v = -v
	}
	return fmt.Sprintf("%s$%d.%03d", neg, v/1e6, (v%1e6)/1e3)
}

// Price is a per-1k-token price schedule for one model.
type Price struct {
	// InputPer1K is the cost of 1000 prompt tokens, in micro-dollars.
	InputPer1K Cost
	// OutputPer1K is the cost of 1000 completion tokens, in micro-dollars.
	OutputPer1K Cost
}

// ForTokens returns the total cost of a call with the given prompt and
// completion token counts. Partial thousands are billed pro rata, rounding
// half away from zero is unnecessary because counts are non-negative.
func (p Price) ForTokens(input, output int) Cost {
	in := int64(p.InputPer1K) * int64(input) / 1000
	out := int64(p.OutputPer1K) * int64(output) / 1000
	return Cost(in + out)
}

// Meter accumulates token usage and spend across calls. The zero value is an
// empty meter ready to use. Meter is not safe for concurrent use; wrap it if
// multiple goroutines share one.
type Meter struct {
	Calls        int
	InputTokens  int
	OutputTokens int
	Spend        Cost
}

// Add records one call.
func (m *Meter) Add(input, output int, cost Cost) {
	m.Calls++
	m.InputTokens += input
	m.OutputTokens += output
	m.Spend += cost
}

// Reset zeroes the meter.
func (m *Meter) Reset() { *m = Meter{} }

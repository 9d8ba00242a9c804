package llm

import (
	"repro/internal/obs"
	"repro/internal/token"
)

// The default model family mirrors the three tiers the paper's Table I
// evaluates, with prices from its Section III-B1 ("the latest price of
// GPT-3.5 Turbo is $0.001/1k input tokens, and GPT-4 is $0.03/1k input
// tokens"). Capabilities are calibrated so that on the uniform-difficulty
// QA workload each model's accuracy lands near the paper's measured
// accuracy (27.5% / ~80% / 92.5%).
const (
	NameSmall  = "babbage-002"
	NameMedium = "gpt-3.5-turbo"
	NameLarge  = "gpt-4"
)

// Family is an ordered set of models, cheapest first.
type Family []*SimModel

// DefaultFamily returns the paper's three-tier model family.
func DefaultFamily() Family { return DefaultFamilyObs(nil) }

// DefaultFamilyObs returns the default family metering into reg.
func DefaultFamilyObs(reg *obs.Registry) Family {
	return Family{
		NewSim(SimConfig{
			Name:         NameSmall,
			Capability:   0.29,
			Price:        token.Price{InputPer1K: 400, OutputPer1K: 400}, // $0.0004/1k
			tokensPerSec: 250,
			Obs:          reg,
		}),
		NewSim(SimConfig{
			Name:         NameMedium,
			Capability:   0.80,
			Price:        token.Price{InputPer1K: 1000, OutputPer1K: 2000}, // $0.001/$0.002 per 1k
			tokensPerSec: 120,
			Obs:          reg,
		}),
		NewSim(SimConfig{
			Name:         NameLarge,
			Capability:   0.95,
			Price:        token.Price{InputPer1K: 30000, OutputPer1K: 60000}, // $0.03/$0.06 per 1k
			tokensPerSec: 40,
			Obs:          reg,
		}),
	}
}

// Models returns the family as the Model list a cascade or proxy takes,
// in the same order.
func (f Family) Models() []Model {
	out := make([]Model, len(f))
	for i, m := range f {
		out[i] = m
	}
	return out
}

// ByName returns the family member with the given name, or nil.
func (f Family) ByName(name string) *SimModel {
	for _, m := range f {
		if m.Name() == name {
			return m
		}
	}
	return nil
}

// Largest returns the most capable model in the family.
func (f Family) Largest() *SimModel {
	if len(f) == 0 {
		return nil
	}
	best := f[0]
	for _, m := range f[1:] {
		if m.Capability() > best.Capability() {
			best = m
		}
	}
	return best
}

// TotalSpend sums spend across the family's meters.
func (f Family) TotalSpend() token.Cost {
	var total token.Cost
	for _, m := range f {
		total += m.Meter().Spend
	}
	return total
}

// ResetMeters zeroes every member's meter.
func (f Family) ResetMeters() {
	for _, m := range f {
		m.ResetMeter()
	}
}

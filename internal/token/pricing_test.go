package token

import (
	"testing"
	"testing/quick"
)

func TestCostString(t *testing.T) {
	cases := []struct {
		c    Cost
		want string
	}{
		{0, "$0.000"},
		{435000, "$0.435"},
		{1123000, "$1.123"},
		{129000, "$0.129"},
		{-500, "-$0.000"},
		{1000000, "$1.000"},
		{30, "$0.000"},
	}
	for _, tc := range cases {
		if got := tc.c.String(); got != tc.want {
			t.Errorf("Cost(%d).String() = %q, want %q", tc.c, got, tc.want)
		}
	}
}

func TestPriceForTokens(t *testing.T) {
	// Mirror the paper: GPT-3.5 Turbo $0.001/1k input tokens.
	p := Price{InputPer1K: 1000, OutputPer1K: 2000}
	if got := p.ForTokens(1000, 0); got != 1000 {
		t.Errorf("1000 input tokens = %v micro-dollars, want 1000", got)
	}
	if got := p.ForTokens(500, 500); got != 500+1000 {
		t.Errorf("500/500 tokens = %v, want 1500", got)
	}
	if got := p.ForTokens(0, 0); got != 0 {
		t.Errorf("zero tokens cost %v, want 0", got)
	}
}

func TestPriceMonotone(t *testing.T) {
	p := Price{InputPer1K: 30000, OutputPer1K: 60000}
	f := func(a, b uint16) bool {
		x, y := int(a), int(b)
		if x > y {
			x, y = y, x
		}
		return p.ForTokens(x, 0) <= p.ForTokens(y, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeter(t *testing.T) {
	var m Meter
	m.Add(100, 20, 500)
	m.Add(200, 30, 700)
	if m.Calls != 2 || m.InputTokens != 300 || m.OutputTokens != 50 || m.Spend != 1200 {
		t.Errorf("meter totals wrong: %+v", m)
	}
	m.Reset()
	if m != (Meter{}) {
		t.Errorf("reset left %+v", m)
	}
}

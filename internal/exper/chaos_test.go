package exper

import (
	"context"
	"strconv"
	"testing"
)

func TestChaosResilience(t *testing.T) {
	rep, err := ChaosResilience(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 5 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	correct := func(row []string, col int) float64 {
		v, err := strconv.ParseFloat(row[col], 64)
		if err != nil {
			t.Fatalf("%s: column %d = %q", row[0], col, row[col])
		}
		return v
	}
	healthy := correct(rep.Rows[0], 2)
	for _, row := range rep.Rows {
		bare, res := correct(row, 1), correct(row, 2)
		if bare > res {
			t.Errorf("%s: bare correct availability %v above resilient %v", row[0], bare, res)
		}
		// The acceptance bar: retries and breakers absorb every injected
		// failure, so the resilient stack answers as many right as when
		// nothing fails.
		if row[0] != "down" && res != healthy {
			t.Errorf("%s: resilient correct availability %v, want the 0%% row's %v", row[0], res, healthy)
		}
		if row[4] != "ok" {
			t.Errorf("%s: spend accounting %q — proxy spend diverged from the model meters", row[0], row[4])
		}
	}
	// At the highest failure rate the bare stack visibly degrades — that
	// contrast is the point of the experiment.
	if bare0, bare50 := correct(rep.Rows[0], 1), correct(rep.Rows[3], 1); bare50 >= bare0 {
		t.Errorf("bare correct availability at 50%% = %v, not below the 0%% row's %v", bare50, bare0)
	}
}

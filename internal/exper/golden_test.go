package exper

import (
	"context"
	"strings"
	"testing"
)

// The golden tests pin the exact numbers committed in EXPERIMENTS.md.
// Everything is seeded, so any drift means a substrate changed behaviour —
// which must be a conscious decision that also updates the docs.

func assertRows(t *testing.T, rep Report, want [][]string) {
	t.Helper()
	if len(rep.Rows) != len(want) {
		t.Fatalf("%s: rows = %d, want %d", rep.ID, len(rep.Rows), len(want))
	}
	for i, w := range want {
		got := strings.Join(rep.Rows[i], " | ")
		if got != strings.Join(w, " | ") {
			t.Errorf("%s row %d:\n  got:  %s\n  want: %s\n(update EXPERIMENTS.md if this change is intentional)",
				rep.ID, i, got, strings.Join(w, " | "))
		}
	}
}

func TestGoldenTable1(t *testing.T) {
	rep, err := Table1Cascade(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertRows(t, rep, [][]string{
		{"babbage-002", "37.5%", "$0.010"},
		{"gpt-3.5-turbo", "82.5%", "$0.027"},
		{"gpt-4", "92.5%", "$0.817"},
		{"LLM cascade", "92.5%", "$0.239"},
	})
}

func TestGoldenTable2(t *testing.T) {
	rep, err := Table2Decomposition(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertRows(t, rep, [][]string{
		{"Origin", "77.0%", "$0.028", "100"},
		{"Decomposition", "91.0%", "$0.008", "35"},
		{"Decomposition+Combination", "91.0%", "$0.003", "35"},
	})
}

func TestGoldenTable3(t *testing.T) {
	rep, err := Table3Cache(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertRows(t, rep, [][]string{
		{"w/o Cache", "80.0%", "$0.013", "20", "n/a"},
		{"Cache(O)", "80.0%", "$0.006", "10", "50%"},
		{"Cache(A)", "100.0%", "$0.006", "14", "36%"},
	})
}

func TestGoldenChaos(t *testing.T) {
	rep, err := ChaosResilience(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertRows(t, rep, [][]string{
		{"0%", "0.900", "0.900", "$0.308", "ok"},
		{"10%", "0.808", "0.900", "$0.308", "ok"},
		{"30%", "0.683", "0.900", "$0.308", "ok"},
		{"50%", "0.642", "0.900", "$0.308", "ok"},
		{"down", "0.000", "0.000", "$0.308", "ok"},
	})
}

func TestGoldenFig6(t *testing.T) {
	rep, err := Fig6CascadeSweep(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertRows(t, rep, [][]string{
		{"threshold 0.00", "34.0%", "$0.054", "0.00"},
		{"threshold 0.40", "74.0%", "$0.347", "0.57"},
		{"threshold 0.55", "96.0%", "$1.094", "0.98"},
		{"threshold 0.62", "97.0%", "$1.291", "1.11"},
		{"threshold 0.70", "97.0%", "$1.672", "1.32"},
		{"threshold 0.85", "97.0%", "$2.346", "1.53"},
		{"threshold 1.01", "97.0%", "$4.261", "2.00"},
		{"trained logistic", "97.0%", "$1.207", "1.07"},
		{"cost-aware ($0.01/answer)", "97.0%", "$2.647", "1.60"},
		{"cost-aware ($1/answer)", "97.0%", "$4.261", "2.00"},
	})
}

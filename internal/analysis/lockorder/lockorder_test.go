package lockorder_test

import (
	"path/filepath"
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/lockorder"
)

func TestFlagsCyclesAndReacquisition(t *testing.T) {
	analysistest.Run(t, filepath.Join("testdata", "src", "flag"), lockorder.Analyzer)
}

func TestAcceptsLayeredOrder(t *testing.T) {
	analysistest.RunClean(t, filepath.Join("testdata", "src", "ok"), lockorder.Analyzer)
}

func TestCrossPackageCycle(t *testing.T) {
	analysistest.Run(t, filepath.Join("testdata", "src", "crosspkg"), lockorder.Analyzer)
}

func TestWaiverIsHonoredAndLoadBearing(t *testing.T) {
	dir := filepath.Join("testdata", "src", "waiver")
	analysistest.RunClean(t, dir, lockorder.Analyzer)

	diags := analysistest.Findings(t, dir, lockorder.Analyzer, true)
	if len(diags) != 1 {
		t.Fatalf("IgnoreAnnotations should resurface the waived self-cycle, got %d diagnostics: %v", len(diags), diags)
	}
}

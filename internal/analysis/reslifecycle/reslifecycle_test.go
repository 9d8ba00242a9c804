package reslifecycle_test

import (
	"path/filepath"
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/reslifecycle"
)

func TestFlagsLeakedObligations(t *testing.T) {
	analysistest.Run(t, filepath.Join("testdata", "src", "flag"), reslifecycle.Analyzer)
}

func TestAcceptsDischargedObligations(t *testing.T) {
	analysistest.RunClean(t, filepath.Join("testdata", "src", "ok"), reslifecycle.Analyzer)
}

func TestCrossPackageCreators(t *testing.T) {
	analysistest.Run(t, filepath.Join("testdata", "src", "crosspkg"), reslifecycle.Analyzer)
}

func TestWaiverIsHonoredAndLoadBearing(t *testing.T) {
	dir := filepath.Join("testdata", "src", "waiver")
	analysistest.RunClean(t, dir, reslifecycle.Analyzer)

	diags := analysistest.Findings(t, dir, reslifecycle.Analyzer, true)
	if len(diags) != 1 {
		t.Fatalf("IgnoreAnnotations should resurface the waived creation, got %d diagnostics: %v", len(diags), diags)
	}
}

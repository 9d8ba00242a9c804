package goleak_test

import (
	"path/filepath"
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/goleak"
)

func TestFlagsParkedGoroutines(t *testing.T) {
	analysistest.Run(t, filepath.Join("testdata", "src", "flag"), goleak.Analyzer)
}

func TestAcceptsGuardedOps(t *testing.T) {
	analysistest.RunClean(t, filepath.Join("testdata", "src", "ok"), goleak.Analyzer)
}

func TestCrossPackageSummaries(t *testing.T) {
	analysistest.Run(t, filepath.Join("testdata", "src", "crosspkg"), goleak.Analyzer)
}

func TestWaiverIsHonoredAndLoadBearing(t *testing.T) {
	dir := filepath.Join("testdata", "src", "waiver")
	analysistest.RunClean(t, dir, goleak.Analyzer)

	diags := analysistest.Findings(t, dir, goleak.Analyzer, true)
	if len(diags) != 1 {
		t.Fatalf("IgnoreAnnotations should resurface the waived send, got %d diagnostics: %v", len(diags), diags)
	}
}

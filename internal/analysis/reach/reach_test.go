package reach_test

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/reach"
)

func TestFlagsWhatNoEntryPointReaches(t *testing.T) {
	analysistest.Run(t, filepath.Join("testdata", "src", "flag"), reach.Analyzer)
}

func TestProgramWithoutMainReportsNothing(t *testing.T) {
	analysistest.RunClean(t, filepath.Join("testdata", "src", "nomain"), reach.Analyzer)
}

// The waivers are what keep the waived declaration, the waived package's
// API and what they call: ignored, all of it resurfaces.
func TestWaiversAreRootsAndLoadBearing(t *testing.T) {
	var msgs []string
	for _, d := range analysistest.Findings(t, filepath.Join("testdata", "src", "flag"), reach.Analyzer, true) {
		msgs = append(msgs, d.Message)
	}
	all := strings.Join(msgs, "\n")
	for _, fn := range []string{"lib.Kept", "lib.helper", "api.Unused"} {
		if !strings.Contains(all, fn+" is reached from no main") {
			t.Errorf("with annotations ignored, %s is not flagged; got:\n%s", fn, all)
		}
	}
}

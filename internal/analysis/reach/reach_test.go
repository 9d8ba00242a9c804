package reach_test

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
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
	pkgs, err := analysis.LoadTree(filepath.Join("testdata", "src", "flag"), "fixture")
	if err != nil {
		t.Fatal(err)
	}
	prog := analysis.BuildProgram(pkgs)
	var msgs []string
	for _, pkg := range pkgs {
		diags, err := analysis.RunAnalyzersProg(prog, pkg, []*analysis.Analyzer{reach.Analyzer}, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			msgs = append(msgs, d.Message)
		}
	}
	all := strings.Join(msgs, "\n")
	for _, fn := range []string{"lib.Kept", "lib.helper", "api.Unused"} {
		if !strings.Contains(all, fn+" is reached from no main") {
			t.Errorf("with annotations ignored, %s is not flagged; got:\n%s", fn, all)
		}
	}
}

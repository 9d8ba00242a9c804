package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/flags.golden")

// flagsGolden is the command's usage text: every flag with its default
// and help. README links it instead of listing the flags by hand.
var flagsGolden = filepath.Join("testdata", "flags.golden")

// TestFlagsGolden holds `llmdm-proxy -h` to testdata/flags.golden byte
// for byte. A new, renamed or re-defaulted flag fails it; run `make
// golden` (or this test with -update-golden) and review the diff.
func TestFlagsGolden(t *testing.T) {
	var got bytes.Buffer
	if err := run([]string{"-h"}, &got); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("run(-h) = %v, want flag.ErrHelp", err)
	}
	if *updateGolden {
		if err := os.WriteFile(flagsGolden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(flagsGolden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("llmdm-proxy -h drifted from %s\n--- got ---\n%s--- want ---\n%s", flagsGolden, got.Bytes(), want)
	}
}

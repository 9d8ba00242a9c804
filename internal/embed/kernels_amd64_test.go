package embed

import (
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// headPaths lists DotInt8HeadsPass's assembly paths, fastest first, the
// order dotInt8HeadsPassArch tries them in.
func headPaths() []headPath {
	return []headPath{
		{name: "vnni", ok: useVNNI, arch: headsPassVNNI},
		{name: "avx2", ok: useAVX2, arch: headsPassAVX2},
	}
}

// The CPUID checks agree with what the kernel reports in /proc/cpuinfo,
// which lists a feature only when the OS also saves its registers: a wrong
// bit in detectVNNI or detectAVX2 would otherwise fall back to a slower
// path without a word. It logs the heads path in use.
func TestHeadKernelDispatch(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("reads /proc/cpuinfo")
	}
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip(err)
	}
	var flags []string
	for _, line := range strings.Split(string(raw), "\n") {
		if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			flags = strings.Fields(val)
			break
		}
	}
	if flags == nil {
		t.Skip("/proc/cpuinfo lists no flags")
	}
	has := func(names ...string) bool {
		for _, n := range names {
			if !slices.Contains(flags, n) {
				return false
			}
		}
		return true
	}
	if want := has("avx512f", "avx512bw", "avx512_vnni"); detectVNNI() != want || useVNNI != want {
		t.Errorf("detectVNNI() = %v and useVNNI = %v, /proc/cpuinfo's avx512f, avx512bw and avx512_vnni say %v", detectVNNI(), useVNNI, want)
	}
	if want := has("avx2", "fma"); useAVX2 != want {
		t.Errorf("useAVX2 = %v, /proc/cpuinfo's avx2 and fma say %v", useAVX2, want)
	}
	path := "generic"
	for _, k := range headPaths() {
		if k.ok {
			path = k.name
			break
		}
	}
	t.Logf("DotInt8HeadsPass runs the %s path", path)
}

package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func sequence(name string, seed uint64, n int) []byte {
	sp, _ := specByName(name, false)
	g := newGenerator(sp, seed)
	var b bytes.Buffer
	for i := 0; i < n; i++ {
		r := g.request(i)
		b.WriteString(r.tenant)
		b.WriteByte('\n')
		b.Write(r.body)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func TestGeneratorIsAFunctionOfTheSeed(t *testing.T) {
	for _, sp := range specs(false) {
		a, b := sequence(sp.name, 7, 600), sequence(sp.name, 7, 600)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave two different request sequences", sp.name)
		}
		if bytes.Equal(a, sequence(sp.name, 8, 600)) {
			t.Errorf("%s: seeds 7 and 8 gave the same request sequence", sp.name)
		}
	}
}

func TestGeneratorShapes(t *testing.T) {
	sp, _ := specByName("hot_exact", false)
	g := newGenerator(sp, 1)
	cold := 0
	for i := 0; i < 1024; i++ {
		r := g.request(i)
		if r.cold {
			cold++
			if r.id < newPromptBase || r.fields.Difficulty != 0 {
				t.Fatalf("cold request %d: id %d difficulty %v", i, r.id, r.fields.Difficulty)
			}
		} else if r.id >= sp.universe || r.fields.Difficulty >= 0.15 {
			t.Fatalf("popular request %d: id %d difficulty %v", i, r.id, r.fields.Difficulty)
		}
	}
	if cold != 1024/sp.coldEvery {
		t.Errorf("%d cold requests in 1024, want %d", cold, 1024/sp.coldEvery)
	}

	sp, _ = specByName("semantic_read", false)
	r := newGenerator(sp, 1).request(0)
	if !strings.HasSuffix(r.fields.Prompt, "?") || r.fields.NoiseKey+"?" != r.fields.Prompt {
		t.Errorf("paraphrase %q with noise key %q", r.fields.Prompt, r.fields.NoiseKey)
	}
}

func TestSliceReductionAndTailSelection(t *testing.T) {
	// Throughput is the clients over the mean latency: two clients (on a box
	// with two cores or more) at 2 ms a request make 1000 requests a second.
	rps := float64(clients()) * 1e3 / 2
	got := reduce(&tally{lat: []float64{3, 1, 2}, null: []float64{30, 50, 40}, codec: []float64{5, 3, 4}, ok: 3}, 0.02)
	if want := [9]float64{rps, 2, 2.5, 2.8, 2.98, 2, 2.5, 2.8, 2.98}; got.timings != want || got.nullUS != 40 || got.codecUS != 4 || got.elsewhere != 0.02 {
		t.Errorf("reduce = %+v, want timings %v", got, want)
	}
	// On the streamed workload the first token has samples of its own.
	got = reduce(&tally{lat: []float64{30, 10, 20}, ttft: []float64{3, 1, 2}, streamed: true, ok: 3}, 0)
	if want := [9]float64{rps / 10, 20, 25, 28, 29.8, 2, 2.5, 2.8, 2.98}; got.timings != want {
		t.Errorf("streamed reduce = %v, want %v", got.timings, want)
	}
	if got := got.atReference(2); got != [9]float64{rps / 5, 10, 12.5, 14, 14.9, 1, 1.25, 1.4, 1.49} {
		t.Errorf("atReference(2) = %v", got)
	}
	// The machine factor is the geometric mean of the probe's two readings
	// over their references; a slice without readings is left as measured.
	if got := (slice{nullUS: 4 * referenceNullUS, codecUS: referenceCodecUS}).factor(); got != 2 {
		t.Errorf("factor = %v, want 2", got)
	}
	if got := (slice{}).factor(); got != 1 {
		t.Errorf("factor without readings = %v, want 1", got)
	}
	if got := acrossSlices([]float64{4, 1, 3, 2}, 0); got.value != 2.5 || got.q1 != 1.75 || got.q3 != 3.25 {
		t.Errorf("acrossSlices = %+v", got)
	}
	for _, tc := range []struct {
		counts []int
		want   float64
	}{
		{[]int{1000, 1500, 2000}, 0.99}, // 10 beyond p99 in the thinnest slice
		{[]int{999, 5000, 5000}, 0.95},  // 9.99 beyond p99: not enough
		{[]int{200, 5000}, 0.95},
		{[]int{199, 5000}, 0.90},
		{[]int{5}, 0.75},
	} {
		if got := supportedTail(tc.counts); got != tc.want {
			t.Errorf("supportedTail(%v) = %v, want %v", tc.counts, got, tc.want)
		}
	}
	for _, tc := range []struct {
		seconds, rps float64
		want         int
	}{
		{15, 30000, 60}, // a fast workload: the shortest slice allowed
		{15, 2000, 30},  // sliceSamples requests take half a second
		{15, 100, minSlices},
		{0.5, 30000, minSlices},
	} {
		if got := sliceCount(tc.seconds, tc.rps); got != tc.want {
			t.Errorf("sliceCount(%v, %v) = %d, want %d", tc.seconds, tc.rps, got, tc.want)
		}
	}
}

func TestTimingsAreReadFromTheCalmSlices(t *testing.T) {
	noisy := func(elsewhere ...float64) []slice {
		var out []slice
		for _, e := range elsewhere {
			out = append(out, slice{elsewhere: e})
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		slices []slice
		want   []int
	}{
		{"every slice calm", noisy(0, 0.01, 0, 0.03), []int{0, 1, 2, 3}},
		{"the disturbed ones are left out", noisy(0.2, 0, 0.01, 0.5, 0, 0.04, 0, 0), []int{1, 2, 4, 6, 7}},
		{"too few calm: the calmest quarter", noisy(0.3, 0.2, 0.1, 0.4, 0.5, 0.6, 0.15, 0.7), []int{2, 6}},
	} {
		if got := calmest(tc.slices); !slicesEqual(got, tc.want) {
			t.Errorf("%s: calmest = %v, want %v", tc.name, got, tc.want)
		}
	}

	// Three calm slices on a machine half as slow again as the reference, and
	// one slice during which a neighbour had a third of the machine.
	slow := func(s slice) slice {
		s.nullUS, s.codecUS = 1.5*referenceNullUS, 1.5*referenceCodecUS
		return s
	}
	slices := []slice{
		slow(slice{ok: 1000, attempted: 1000, withinSLO: 990, timings: [9]float64{1000, 6, 7, 8, 9, 6, 7, 8, 9}}),
		slow(slice{ok: 1000, attempted: 1000, withinSLO: 100, elsewhere: 0.33, timings: [9]float64{500, 12, 30, 50, 90, 12, 30, 50, 90}}),
		slow(slice{ok: 1000, attempted: 1000, withinSLO: 990, timings: [9]float64{1200, 4, 5, 6, 7, 4, 5, 6, 7}}),
		slow(slice{ok: 1000, attempted: 1000, withinSLO: 990, timings: [9]float64{1100, 5, 6, 7, 8, 5, 6, 7, 8}}),
	}
	res := &result{metrics: map[string]float64{}, spreads: map[string]summary{}, win: window{seconds: 4, slices: slices, tally: &tally{ok: 4000}}}
	res.endToEnd()
	if m := res.metrics; !slicesEqual(res.calm, []int{0, 2, 3}) || res.factor != 1.5 ||
		m["throughput_rps"] != 1650 || m["latency_p50_ms"] != 5/1.5 || m["ttft_p75_ms"] != 6/1.5 || m["client.latency_p99_ms"] != 8/1.5 || m["slo_attainment"] != 0.99 {
		t.Errorf("CPU-bound window: read %v, factor %v, metrics %v", res.calm, res.factor, m)
	}
	if res.raw["latency_p50_ms"] != 5 || res.raw["throughput_rps"] != 1100 {
		t.Errorf("measured values not kept: %v", res.raw)
	}
	// The same window on a workload that waits on timers is left as measured.
	res = &result{sp: spec{paced: true}, metrics: map[string]float64{}, spreads: map[string]summary{}, win: window{seconds: 4, slices: slices, tally: &tally{ok: 4000}}}
	res.endToEnd()
	if m := res.metrics; res.factor != 1 || m["latency_p50_ms"] != 5 || m["throughput_rps"] != 1100 {
		t.Errorf("waiting window: factor %v, metrics %v", res.factor, m)
	}
}

func slicesEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestElsewhereIsStealPlusOtherProcesses(t *testing.T) {
	from := machine{total: 1000, busy: 400, steal: 10}
	// 200 ticks later: 20 stolen, 150 busy of which this process used 1.2 s.
	now := machine{total: 1200, busy: 550, steal: 30}
	if got := now.elsewhereSince(from, 1200*time.Millisecond); math.Abs(got-0.25) > 1e-9 {
		t.Errorf("elsewhere = %v, want (20 stolen + 30 others) / 200", got)
	}
	// Tick accounting can credit the process with more than the machine ran.
	if got := now.elsewhereSince(from, 2*time.Second); math.Abs(got-0.1) > 1e-9 {
		t.Errorf("elsewhere = %v, want the 20 stolen / 200", got)
	}
	if got := (machine{}).elsewhereSince(machine{}, time.Second); got != 0 {
		t.Errorf("without /proc/stat elsewhere = %v, want 0", got)
	}
}

func TestSelfTimeCountsOverlapOnce(t *testing.T) {
	parent := span{Start: 100, End: 200}
	kids := []span{
		{Start: 110, End: 140},
		{Start: 130, End: 160}, // overlaps the first: 110..160 is covered once
		{Start: 150, End: 155}, // inside the second
		{Start: 190, End: 250}, // runs past the parent: only 190..200 counts
		{Start: 20, End: 90},   // outside the parent
	}
	if got := selfTime(parent, kids); got != 100-50-10 {
		t.Errorf("selfTime = %d, want 40", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("selfTime without children = %d, want 100", got)
	}
}

func TestNodeLayAndTwin(t *testing.T) {
	root := newNode("proxy", timing{1000, 1100})
	a, b := newNode("semcache.lookup", timing{5000, 5030}), newNode("cascade", timing{7000, 7050})
	b.adopt(newNode("llm", timing{7010, 7020}))
	c1 := newNode("semcache.lookup.c1", timing{9000, 9020})
	root.lay(a)
	root.twin(c1) // beside a, taking no room of its own
	root.lay(b)
	if a.Start != 1000 || a.End != 1030 || b.Start != 1030 || b.End != 1080 {
		t.Errorf("laid children at %d..%d and %d..%d", a.Start, a.End, b.Start, b.End)
	}
	if llm := b.kids[0]; llm.Start != 1040 || llm.End != 1050 {
		t.Errorf("adopted grandchild moved to %d..%d, want 1040..1050", llm.Start, llm.End)
	}
	if c1.Start != 1000 || c1.End != 1020 {
		t.Errorf("twin at %d..%d, want 1000..1020", c1.Start, c1.End)
	}
	spans := root.flatten(nil, 3, 0)
	if len(spans) != 5 || spans[1].Parent != spans[0].Span || spans[4].Parent != spans[3].Span || spans[2].Trace != 3 {
		t.Errorf("flatten = %+v", spans)
	}
}

const goldenStream = "event: chunk\ndata: {\"text\":\"wrong \",\"index\":0,\"model\":\"babbage-002\",\"tier\":0,\"confidence\":0.5,\"cost_micro_usd\":3}\n\n" +
	"event: chunk\ndata: {\"text\":\"start\",\"index\":1,\"model\":\"babbage-002\",\"tier\":0,\"confidence\":0.2,\"cost_micro_usd\":1}\n\n" +
	"event: chunk\ndata: {\"text\":\"right \",\"index\":2,\"model\":\"gpt-4\",\"tier\":2,\"confidence\":0.9,\"cost_micro_usd\":40,\"restart\":true}\n\n" +
	"event: chunk\ndata: {\"text\":\"answer\",\"index\":3,\"model\":\"gpt-4\",\"tier\":2,\"confidence\":0.9,\"cost_micro_usd\":20,\"final\":true}\n\n" +
	"event: done\ndata: {\"text\":\"right answer\",\"model\":\"gpt-4\",\"source\":\"cascade\",\"tier\":2,\"confidence\":0.9,\"cost_micro_usd\":64,\"elapsed_ms\":0.2,\"trace_id\":\"t9\",\"chunks\":4}\n\n"

func read(stream string) ([]sseEvent, int64, int64, error) {
	clock := int64(0)
	return readSSE(bufio.NewReader(strings.NewReader(stream)), func() int64 { clock++; return clock })
}

func TestSSEReaderOnGoldenStreams(t *testing.T) {
	events, first, done, err := read(goldenStream + "event: chunk\ndata: {}\n\n")
	if err != nil || len(events) != 5 || first != 1 || done != 2 {
		t.Fatalf("readSSE = %d events, first %d, done %d, err %v", len(events), first, done, err)
	}
	a, err := checkStream(events)
	if err != nil || a.text != "right answer" || a.cost != 64 || a.chunks != 4 || a.source != "cascade" {
		t.Errorf("checkStream = %+v, %v", a, err)
	}

	for name, stream := range map[string]string{
		"index gap":       strings.Replace(goldenStream, `"index":1`, `"index":2`, 1),
		"cost mismatch":   strings.Replace(goldenStream, `"cost_micro_usd":64`, `"cost_micro_usd":63`, 1),
		"text mismatch":   strings.Replace(goldenStream, `"restart":true`, `"restart":false`, 1),
		"error event":     "event: chunk\ndata: {\"text\":\"a\",\"index\":0}\n\nevent: error\ndata: {\"code\":\"upstream_error\",\"message\":\"boom\",\"retryable\":false}\n\n",
		"chunk after end": strings.Replace(goldenStream, "event: done", "event: chunk", 1),
	} {
		events, _, _, err := read(stream)
		if err == nil {
			_, err = checkStream(events)
		}
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	// A stream cut before its terminal event is a transport-level failure.
	if _, _, _, err := read(strings.SplitAfter(goldenStream, "\n\n")[0]); !errors.Is(err, errStreamTruncated) {
		t.Errorf("truncated stream: err = %v", err)
	}
	// An error event still ends the stream and stops the clock.
	if events, _, done, err := read("event: error\ndata: {}\n\n"); err != nil || len(events) != 1 || done == 0 {
		t.Errorf("error-only stream: %d events, done %d, err %v", len(events), done, err)
	}
}

// TestSmoke drives all five workloads for half a second each, at reduced
// sizes, through set-up, warm-up, window and traced pass.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	for _, sp := range specs(true) {
		res, err := runWorkload(context.Background(), sp, 1, 0.5, dir)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		if err := errors.Join(res.checks...); err != nil {
			t.Errorf("%s: checks failed: %v", sp.name, err)
		}
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			line := res.line(defs)
			for _, d := range defs {
				m, ok := line.Metrics[d.name]
				if !ok || m.Unit == "" {
					t.Errorf("%s: metric %s missing or without a unit", sp.name, d.name)
				}
			}
			if line.Attempted < 1 || line.Failed != 0 || !line.Correct {
				t.Errorf("%s: result line %+v", sp.name, line)
			}
		}
		for _, d := range endToEnd {
			if v := res.metrics[d.name]; v <= 0 || math.IsNaN(v) {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", sp.name, d.name, v)
			}
		}
		if fi, err := os.Stat(filepath.Join(dir, "trace-"+sp.name+".jsonl")); err != nil || fi.Size() == 0 {
			t.Errorf("%s: no span file: %v", sp.name, err)
		}
	}
}

// TestBenchmarkJSONMatchesTheHarness holds BENCHMARK.json to the names,
// units, directions and bounds the harness reports.
func TestBenchmarkJSONMatchesTheHarness(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var file struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(specs(false)) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(file.Workloads), len(specs(false)))
	}
	for i, sp := range specs(false) {
		if w := file.Workloads[i]; w.Name != sp.name || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why: %d chars), want %q", i, w.Name, len(w.Why), sp.name)
		}
	}
	for _, pair := range []struct {
		got  []metric
		want []metricDef
	}{{file.EndToEnd, endToEnd}, {file.PerLayer, perLayer}} {
		if len(pair.got) != len(pair.want) {
			t.Fatalf("%d metrics in BENCHMARK.json, %d in the harness", len(pair.got), len(pair.want))
		}
		for i, d := range pair.want {
			if g := pair.got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
				t.Errorf("metric %d: BENCHMARK.json has %+v, the harness %+v", i, g, d)
			}
		}
	}
}

package proxy

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/token"
)

// wantEvent is the reference the encoder is held to: the event as the
// handler used to write it, through encoding/json. ok is false when
// encoding/json refuses the value.
func wantEvent(name string, v interface{}) (string, bool) {
	data, err := json.Marshal(v)
	return "event: " + name + "\ndata: " + string(data) + "\n\n", err == nil
}

// eventDiff compares both encoders' output for ch and d with
// encoding/json's and describes the first difference, "" when there is
// none. The encoders are parameters so the mutants below can stand in.
func eventDiff(chunkEvent func([]byte, *Chunk) ([]byte, bool), doneEvent func([]byte, *StreamDone) ([]byte, bool), ch Chunk, d StreamDone) string {
	prefix := []byte("already buffered|")
	describe := func(got []byte, ok bool, want string, wantOK bool) string {
		switch {
		case ok != wantOK:
			return "encodable = " + strconv.FormatBool(ok) + ", encoding/json says " + strconv.FormatBool(wantOK) + " for " + strconv.Quote(want)
		case !ok:
			return ""
		case !bytes.HasPrefix(got, prefix):
			return "the bytes already in the buffer were overwritten"
		case string(got[len(prefix):]) != want:
			return "got " + strconv.Quote(string(got[len(prefix):])) + "\nwant " + strconv.Quote(want)
		}
		return ""
	}
	got, ok := chunkEvent(append([]byte(nil), prefix...), &ch)
	want, wantOK := wantEvent("chunk", ch)
	if diff := describe(got, ok, want, wantOK); diff != "" {
		return "chunk: " + diff
	}
	got, ok = doneEvent(append([]byte(nil), prefix...), &d)
	want, wantOK = wantEvent("done", d)
	if diff := describe(got, ok, want, wantOK); diff != "" {
		return "done: " + diff
	}
	return ""
}

// replyDiff compares the JSON reply of POST /v1/complete, the error
// envelope and the SSE error event with what encoding/json writes for
// them — json.Encoder's bytes, trailing newline included, for the two
// replies — and describes the first difference, "" when there is none.
func replyDiff(r CompletionResponse, e ErrorBody) string {
	encode := func(v interface{}) (string, bool) {
		var b bytes.Buffer
		err := json.NewEncoder(&b).Encode(v)
		return b.String(), err == nil
	}
	prefix := []byte("already buffered|")
	got, ok := appendCompletion(append([]byte(nil), prefix...), &r)
	want, wantOK := encode(r)
	switch {
	case ok != wantOK:
		return "reply: encodable = " + strconv.FormatBool(ok) + ", encoding/json says " + strconv.FormatBool(wantOK) + " for " + strconv.Quote(want)
	case ok && string(got) != string(prefix)+want:
		return "reply: got " + strconv.Quote(string(got)) + "\nwant " + strconv.Quote(string(prefix)+want)
	}
	want, _ = encode(ErrorEnvelope{Error: e})
	if got := appendErrorEnvelope(append([]byte(nil), prefix...), &e); string(got) != string(prefix)+want {
		return "error envelope: got " + strconv.Quote(string(got)) + "\nwant " + strconv.Quote(string(prefix)+want)
	}
	want, _ = wantEvent("error", e)
	if got := appendErrorEvent(append([]byte(nil), prefix...), &e); string(got) != string(prefix)+want {
		return "error event: got " + strconv.Quote(string(got)) + "\nwant " + strconv.Quote(string(prefix)+want)
	}
	return ""
}

// replyOf carries a done event's fields into the JSON reply and an
// error body.
func replyOf(d StreamDone, retryable bool) (CompletionResponse, ErrorBody) {
	return CompletionResponse{Text: d.Text, Model: d.Model, Source: d.Source, Confidence: d.Confidence,
			CostMicro: d.CostMicro, ElapsedMS: d.ElapsedMS, TraceID: d.TraceID},
		ErrorBody{Code: d.Source, Message: d.Text, Retryable: retryable}
}

// sseStrings are the strings the table puts in every string field.
var sseStrings = []string{
	"",
	"plain words, with punctuation; and digits 0123456789.",
	`a "quoted" word and a back\slash`,
	"tab\there, newline\nhere, return\rhere, backspace\bhere, form feed\fhere",
	"control bytes \x00 \x01 \x1f and DEL \x7f",
	"<script>alert('x') && y > z</script>",
	"line separator \u2028 and paragraph separator \u2029 inside",
	"\u2028",
	"neighbours of the separators: \u2027 \u202a",
	"invalid UTF-8: \xff, a lone continuation \x80, a cut-off rune \xe2\x80",
	"\xe2\x80",
	"valid multi-byte: é 世界 🙂 and U+FFFD itself \ufffd",
	"ends in a backslash \\",
	"event: chunk\ndata: {}\n\n",
}

// sseFloats cross both of encoding/json's exponent switches, with the
// values just inside and just outside each.
var sseFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 0.8123, 0.1 + 0.2, 1.0 / 3,
	1e-6, math.Nextafter(1e-6, 0), 9.99e-7, 1e-7, 1.5e-7, -1e-7, 1e-9, 1.25e-10, 1e-10, 1e-100, 5e-324,
	1e20, 123456789012345678901, math.Nextafter(1e21, 0), 1e21, -1e21, 1.5e21, 1e22, 1e100, math.MaxFloat64,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

// sseCases crosses the strings, the floats and every omitempty
// combination into (Chunk, StreamDone) pairs.
func sseCases() (chunks []Chunk, dones []StreamDone) {
	n := 0
	for i, s := range sseStrings {
		for j, f := range sseFloats {
			other := sseStrings[(i+j)%len(sseStrings)]
			trace := ""
			if n&4 != 0 {
				trace = other
			}
			chunks = append(chunks, Chunk{Text: s, Index: n - 3, Model: other, Tier: j - 1, Confidence: f,
				Cost: token.Cost(int64(n-5) * 1_000_003), Restart: n&1 != 0, Final: n&2 != 0})
			dones = append(dones, StreamDone{Text: s, Model: other, Source: sseStrings[(i+2*j)%len(sseStrings)], Tier: j - 1,
				Confidence: f, CostMicro: int64(n-5) * 1_000_003, ElapsedMS: sseFloats[(i+j)%len(sseFloats)], TraceID: trace, Chunks: n})
			n++
		}
	}
	return chunks, dones
}

// The hand-written encoders write what encoding/json writes, and refuse
// what it refuses: the events, the JSON reply and the error envelope.
func TestSSEEventsMatchEncodingJSON(t *testing.T) {
	chunks, dones := sseCases()
	for i := range chunks {
		if diff := eventDiff(appendChunkEvent, appendDoneEvent, chunks[i], dones[i]); diff != "" {
			t.Errorf("case %d: %s", i, diff)
		}
		if diff := replyDiff(replyOf(dones[i], i&1 != 0)); diff != "" {
			t.Errorf("case %d: %s", i, diff)
		}
	}
	// The extreme integers, and a zero value of each.
	for _, n := range []int64{math.MinInt64, math.MaxInt64, 0} {
		ch := Chunk{Index: int(n), Tier: int(n), Cost: token.Cost(n)}
		d := StreamDone{Tier: int(n), CostMicro: n, Chunks: int(n)}
		if diff := eventDiff(appendChunkEvent, appendDoneEvent, ch, d); diff != "" {
			t.Errorf("integers at %d: %s", n, diff)
		}
		if diff := replyDiff(replyOf(d, false)); diff != "" {
			t.Errorf("integers at %d: %s", n, diff)
		}
	}
}

// The comparison above is worth something only if it can fail: an
// encoder that leaves one HTML-unsafe byte alone and one whose exponent
// cut takes in 1e-6 itself are each caught by the table.
func TestSSEDifferentialCatchesMutants(t *testing.T) {
	mutate := func(rewrite func(event string) string) (func([]byte, *Chunk) ([]byte, bool), func([]byte, *StreamDone) ([]byte, bool)) {
		return func(dst []byte, ch *Chunk) ([]byte, bool) {
				out, ok := appendChunkEvent(nil, ch)
				return append(dst, rewrite(string(out))...), ok
			}, func(dst []byte, d *StreamDone) ([]byte, bool) {
				out, ok := appendDoneEvent(nil, d)
				return append(dst, rewrite(string(out))...), ok
			}
	}
	mutants := map[string]func(string) string{
		"wrong escape":       func(event string) string { return strings.ReplaceAll(event, `\u003e`, ">") },
		"wrong exponent cut": func(event string) string { return strings.ReplaceAll(event, `:0.000001,`, `:1e-6,`) },
	}
	chunks, dones := sseCases()
	for name, rewrite := range mutants {
		chunkEvent, doneEvent := mutate(rewrite)
		caught := 0
		for i := range chunks {
			if eventDiff(chunkEvent, doneEvent, chunks[i], dones[i]) != "" {
				caught++
			}
		}
		if caught == 0 {
			t.Errorf("the table does not notice the %s mutant", name)
		}
	}
}

// An event or a reply costs no allocation once the response's buffer has
// grown to hold it.
func TestSSEEncodeDoesNotAllocate(t *testing.T) {
	ch := Chunk{Text: "pruning <by> \"range\" metadata ", Index: 7, Model: "gpt-3.5-turbo", Tier: 1, Confidence: 0.8123, Cost: 42, Final: true}
	d := StreamDone{Text: strings.Repeat("word ", 14), Model: "gpt-4", Source: "cascade", Tier: 2, Confidence: 1.5e-7, CostMicro: 725, ElapsedMS: 0.155, TraceID: "00000000000000a1", Chunks: 20}
	r, e := replyOf(d, true)
	buf := make([]byte, 0, 1024)
	if n := testing.AllocsPerRun(100, func() {
		buf, _ = appendChunkEvent(buf[:0], &ch)
		buf, _ = appendDoneEvent(buf, &d)
		buf, _ = appendCompletion(buf, &r)
		buf = appendErrorEvent(buf, &e)
	}); n != 0 {
		t.Fatalf("encoding a chunk, a done event, a reply and an error event allocated %v times, want 0", n)
	}
}

// BenchmarkSSEEncodeChunk times one chunk event through the encoder and,
// as the reference, the way the handler used to build the same bytes.
func BenchmarkSSEEncodeChunk(b *testing.B) {
	ch := Chunk{Text: "metadata ", Index: 7, Model: "gpt-3.5-turbo", Tier: 1, Confidence: 0.8123, Cost: 42}
	b.Run("append", func(b *testing.B) {
		buf := make([]byte, 0, 1024)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf, _ = appendChunkEvent(buf[:0], &ch)
		}
		b.SetBytes(int64(len(buf)))
	})
	b.Run("encoding_json", func(b *testing.B) {
		var event string
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			event, _ = wantEvent("chunk", ch)
		}
		b.SetBytes(int64(len(event)))
	})
}

// FuzzSSEEvent is the same comparison over arbitrary field values: for
// any Chunk and StreamDone the appended bytes are
// "event: "+name+"\ndata: "+json.Marshal(v)+"\n\n", and for the
// CompletionResponse and ErrorEnvelope built from the same fields they are
// json.Encoder's, or both sides refuse. The seeds (the table's corners)
// run under plain `go test`.
func FuzzSSEEvent(f *testing.F) {
	for i, s := range sseStrings {
		f.Add(s, sseStrings[(i+1)%len(sseStrings)], sseStrings[(i+2)%len(sseStrings)], sseFloats[i%len(sseFloats)], sseFloats[(3*i+1)%len(sseFloats)], int64(i)-2, uint8(i))
	}
	for i, x := range sseFloats {
		f.Add("t", "m", "", x, sseFloats[(i+7)%len(sseFloats)], int64(math.MaxInt64)-int64(i), uint8(i))
	}
	f.Fuzz(func(t *testing.T, text, model, extra string, conf, elapsed float64, n int64, flags uint8) {
		trace := ""
		if flags&4 != 0 {
			trace = extra
		}
		ch := Chunk{Text: text, Index: int(n), Model: model, Tier: int(n >> 7), Confidence: conf, Cost: token.Cost(-n),
			Restart: flags&1 != 0, Final: flags&2 != 0}
		d := StreamDone{Text: text, Model: model, Source: extra, Tier: int(n >> 3), Confidence: conf, CostMicro: n,
			ElapsedMS: elapsed, TraceID: trace, Chunks: int(n >> 11)}
		if diff := eventDiff(appendChunkEvent, appendDoneEvent, ch, d); diff != "" {
			t.Fatal(diff)
		}
		if diff := replyDiff(replyOf(d, flags&8 != 0)); diff != "" {
			t.Fatal(diff)
		}
	})
}

package proxy

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// FuzzCompletionRequest throws arbitrary bytes at POST /v1/complete as
// the request body. Whatever arrives, the front door does not panic, it
// answers 200, 400 or 413, and every refusal is the error envelope with
// a code. The seeds run under plain `go test`.
func FuzzCompletionRequest(f *testing.F) {
	f.Add([]byte(`{"prompt":"Q: where was Mei born?","gold":"Kyoto","difficulty":0.1}`))
	f.Add([]byte(`{"prompt":"Q: where was Mei born?","gold":"Kyoto","difficulty":0.8,"stream":true}`))
	f.Add([]byte(`{"prompt":"p","priority":"warp"}`))
	f.Add([]byte(`{"prompt":"` + strings.Repeat("p", maxPromptBytes+1) + `"}`))
	f.Add([]byte(`{"prompt":"cut off mid-str`))
	// A small cache: a long fuzz run must not grow one without bound.
	h := newTestProxy(Config{CacheCapacity: 64}).Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/complete", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			var env ErrorEnvelope
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Code == "" {
				t.Fatalf("status %d with body %q: not an error envelope with a code (%v)", rec.Code, rec.Body.Bytes(), err)
			}
		default:
			t.Fatalf("status %d for body %q, want 200, 400 or 413", rec.Code, body)
		}
	})
}

// clientBodies are the bodies of the shapes the end-to-end benchmark's
// workloads send, built the way it builds them: json.Marshal of a
// CompletionRequest with the task, a prompt of words and a reference
// number, a gold answer and a difficulty — or none, when it is zero —
// plus, per workload, a paraphrase's noise key, the stream flag or the
// batch priority. The last is its null probe's body, verbatim.
func clientBodies(t testing.TB) [][]byte {
	const prompt = "braidou stosth goukai lounem trougeas haigar daibus pregol veagu dreabis fubris traumeam ref 4093"
	const gold = "zaisteal gloutroun koutaim hounar"
	shapes := []CompletionRequest{
		{Task: "qa", Prompt: prompt, Gold: gold, Difficulty: 0.6180339887498949},
		{Task: "qa", Prompt: prompt, Gold: gold},
		{Task: "qa", Prompt: prompt, Gold: gold, Difficulty: 0.0927050983124842 * 1e-6},
		{Task: "qa", Prompt: prompt + "?", Gold: gold, Difficulty: 0.25, NoiseKey: prompt},
		{Task: "qa", Prompt: prompt, Gold: gold, Difficulty: 0.8541019662496847, Stream: true},
		{Task: "qa", Prompt: prompt, Gold: gold, Difficulty: 0.47, Priority: "batch"},
	}
	var bodies [][]byte
	for _, shape := range shapes {
		b, err := json.Marshal(shape)
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, b)
	}
	return append(bodies, []byte(`{"task":"qa","prompt":"braidou stosth goukai lounem trougeas haigar daibus pregol veagu dreabis fubris traumeam ref 17","gold":"zaisteal gloutroun koutaim hounar","difficulty":0.05}`))
}

// otherBodies are shapes the one-pass decoder leaves to encoding/json.
var otherBodies = []string{
	`{"prompt":"p","wrong_alts":["a","b"]}`,
	`{"Prompt":"case-folded key"}`,
	`{"prompt":"p","unknown":1}`,
	`null`,
	`{"prompt":null}`,
	`{"prompt":"p","stream":null}`,
	`{"prompt":"p"} {"prompt":"trailing"}`,
	`{"prompt":"p"}x`,
	`{"prompt":"an \"escaped\" string"}`,
	`{"prompt":"\u00e9"}`,
	"{\"prompt\":\"invalid UTF-8 \xff\"}",
	"{\"prompt\":\"a raw\tcontrol byte\"}",
	`{"prompt":"p","difficulty":"0.5"}`,
	`{"prompt":"p","difficulty":01}`,
	`{"prompt":"p","difficulty":1e400}`,
	`{"prompt":"p","difficulty":.5}`,
	`{"prompt":"p","difficulty":1.}`,
	`{"prompt":"p","difficulty":1e}`,
	`{"prompt":"p","difficulty":1E+}`,
	`{"prompt":"p","difficulty":-}`,
	`{"prompt":"p","difficulty":+1}`,
	`{"prompt":"p","stream":tru}`,
	`{"prompt":"p",}`,
	`{"prompt":5}`,
	`{"prompt":"cut off`,
	``,
	`   `,
}

// The workloads' bodies take the one-pass path — the serving gain rests
// on it — and the other shapes do not.
func TestClientBodiesDecodeInOnePass(t *testing.T) {
	for _, body := range clientBodies(t) {
		var req CompletionRequest
		if !decodeScalars(body, &req) {
			t.Errorf("%s: left to encoding/json, want the one-pass path", body)
		}
	}
	for _, body := range otherBodies {
		var req CompletionRequest
		if decodeScalars([]byte(body), &req) {
			t.Errorf("%s: taken by the one-pass path, want encoding/json", body)
		}
	}
}

// FuzzDecodeCompletionRequest holds the handler's decoder to
// encoding/json: for any bytes both accept or both refuse, with the same
// message, and leave the same request; and the request the handler
// decoded shares no byte with the buffer it came from, which is pooled.
// The seeds run under plain `go test`.
func FuzzDecodeCompletionRequest(f *testing.F) {
	for _, body := range clientBodies(f) {
		f.Add(body)
	}
	for _, body := range otherBodies {
		f.Add([]byte(body))
	}
	f.Add([]byte(` {"stream":false , "difficulty":-0.0e+0,"wrong":"","priority":"batch"} `))
	f.Add([]byte(`{"task":"q","task":"r","difficulty":-12.5E-3,"stream":true}`))
	f.Add([]byte("{\"prompt\":\"<&> é 世界 \u2028\",\"difficulty\":5e-324}"))
	f.Fuzz(func(t *testing.T, body []byte) {
		buf := append([]byte(nil), body...)
		var got, want CompletionRequest
		gotErr := decodeCompletionRequest(buf, &got)
		wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("%q: the handler says %v, encoding/json says %v", body, gotErr, wantErr)
		}
		for i := range buf {
			buf[i] = 0
		}
		if !reflect.DeepEqual(got, want) || math.Signbit(got.Difficulty) != math.Signbit(want.Difficulty) {
			t.Fatalf("%q:\nthe handler decoded %+v\nencoding/json decoded %+v", body, got, want)
		}
	})
}

package proxy

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
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

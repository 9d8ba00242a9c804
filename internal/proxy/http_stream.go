package proxy

import (
	"context"
	"encoding/json"
	"io"
	"net/http"

	"repro/internal/llm"
)

// StreamDone is the payload of the terminal "done" SSE event: the
// settled Answer on the wire — the fully assembled text plus the
// accounting a non-streamed call would return, so a streaming client
// needs no second request to learn what it paid.
type StreamDone struct {
	Text       string  `json:"text"`
	Model      string  `json:"model"`
	Source     string  `json:"source"`
	Tier       int     `json:"tier"`
	Confidence float64 `json:"confidence"`
	CostMicro  int64   `json:"cost_micro_usd"`
	ElapsedMS  float64 `json:"elapsed_ms"`
	TraceID    string  `json:"trace_id,omitempty"`
	Chunks     int     `json:"chunks"`
}

// serveStream handles POST /v1/complete with "stream": true. Events:
//
//	event: chunk   data: Chunk            (repeated, in order)
//	event: done    data: StreamDone       (terminal, success)
//	event: error   data: ErrorBody        (terminal, failure after headers)
//
// Errors before the first chunk (shed, bad upstream) are still reported
// as ordinary HTTP error envelopes; once the 200 + text/event-stream
// header is out, failures become "error" events.
func (p *Proxy) serveStream(w http.ResponseWriter, ctx context.Context, req llm.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "internal", "streaming unsupported: response writer cannot flush", false)
		return
	}
	s, err := p.CompleteStream(ctx, req)
	if err != nil {
		completionError(w, err)
		return
	}
	defer s.Close()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	writeEvent := func(event string, v interface{}) bool {
		data, err := json.Marshal(v)
		if err != nil {
			return false
		}
		if _, err := io.WriteString(w, "event: "+event+"\ndata: "+string(data)+"\n\n"); err != nil {
			return false
		}
		fl.Flush()
		return true
	}

	for {
		ch, rerr := s.Recv()
		if rerr != nil {
			// io.EOF or the terminal error — Answer reports which.
			break
		}
		if !writeEvent("chunk", ch) {
			// Client went away mid-write; Close (deferred) accounts
			// the cancel without touching the coalesced cohort.
			return
		}
	}
	ans, err := s.Answer()
	if err != nil {
		_, body := errorBodyFor(err)
		writeEvent("error", body)
		return
	}
	writeEvent("done", StreamDone{
		Text:       ans.Text,
		Model:      ans.Model,
		Source:     ans.Source,
		Tier:       ans.Tier,
		Confidence: ans.Confidence,
		CostMicro:  int64(ans.Cost),
		ElapsedMS:  elapsedMS(ans),
		TraceID:    ans.Trace,
		Chunks:     ans.Chunks,
	})
}

package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httputil"
	"strconv"
	"strings"

	"repro/internal/proxy"
)

// client is one closed-loop caller: one keep-alive HTTP/1.1 connection, the
// next request sent only after the previous reply is fully read. It speaks
// HTTP itself over the socket, from the goroutine that calls do:
// http.Transport would put two more goroutines and four hand-offs between
// them into every round trip, and on a box with as many clients as cores
// those hand-offs are timed by the scheduler, not by the program.
type client struct {
	addr string // host:port
	path string
	conn net.Conn
	// unhook takes the connection off the run's context again: a canceled run
	// closes the socket under whatever read is blocked on it.
	unhook func() bool
	br     *bufio.Reader // over conn
	sse    *bufio.Reader // over the de-chunked body of a streamed reply
	out    []byte        // the request being written
	body   []byte        // the JSON reply being read
}

func newClient(url string) *client {
	addr, path, _ := strings.Cut(strings.TrimPrefix(url, "http://"), "/")
	return &client{addr: addr, path: "/" + path, br: bufio.NewReaderSize(nil, 16<<10), sse: bufio.NewReaderSize(nil, 4<<10)}
}

func (c *client) close() {
	if c.conn != nil {
		c.unhook()
		_ = c.conn.Close()
		c.conn = nil
	}
}

// sseEvent is one server-sent event: its name and its data line.
type sseEvent struct {
	name string
	data []byte
}

// reply is what one request produced, with the times the client saw.
type reply struct {
	status int
	err    error // transport error, or a malformed stream
	// sent is when the request was handed to the socket; first is when the
	// first chunk event was read (streamed) and done is when the body was
	// fully read (JSON) or the terminal event was read (streamed). JSON
	// replies have first == done: the first token arrives with the body.
	sent, first, done int64
	body              []byte     // JSON reply
	events            []sseEvent // streamed reply
}

// do sends r and reads the reply. Nothing in it inspects the payload: the
// checks run after the clock has stopped. A failed exchange drops the
// connection; the next request dials again.
func (c *client) do(ctx context.Context, r request) reply {
	rep, err := c.exchange(ctx, r)
	if err != nil {
		c.close()
		rep.err = errors.Join(err, ctx.Err())
	}
	return rep
}

func (c *client) exchange(ctx context.Context, r request) (reply, error) {
	if c.conn == nil {
		conn, err := (&net.Dialer{}).DialContext(ctx, "tcp", c.addr)
		if err != nil {
			return reply{}, err
		}
		c.unhook = context.AfterFunc(ctx, func() { _ = conn.Close() })
		c.conn = conn
		c.br.Reset(conn)
	}
	c.out = append(c.out[:0], "POST "...)
	c.out = append(c.out, c.path...)
	c.out = append(c.out, " HTTP/1.1\r\nHost: "...)
	c.out = append(c.out, c.addr...)
	c.out = append(c.out, "\r\nContent-Type: application/json\r\n"...)
	if r.tenant != "" {
		c.out = append(c.out, proxy.TenantHeader+": "...)
		c.out = append(c.out, r.tenant...)
		c.out = append(c.out, "\r\n"...)
	}
	c.out = append(c.out, "Content-Length: "...)
	c.out = strconv.AppendInt(c.out, int64(len(r.body)), 10)
	c.out = append(c.out, "\r\n\r\n"...)
	c.out = append(c.out, r.body...)

	rep := reply{sent: nowNS()}
	if _, err := c.conn.Write(c.out); err != nil {
		return rep, err
	}
	length, chunked, err := c.readHead(&rep)
	if err != nil {
		return rep, err
	}
	if chunked && r.fields.Stream && rep.status == http.StatusOK {
		body := httputil.NewChunkedReader(c.br)
		c.sse.Reset(body)
		rep.events, rep.first, rep.done, rep.err = readSSE(c.sse, nowNS)
		// Read to the end of the body so the connection is at the next reply.
		if _, err := io.Copy(io.Discard, c.sse); err != nil {
			return rep, err
		}
		return rep, c.readTrailer()
	}
	if chunked {
		if c.body, err = io.ReadAll(httputil.NewChunkedReader(c.br)); err == nil {
			err = c.readTrailer()
		}
	} else {
		c.body = append(c.body[:0], make([]byte, length)...)
		_, err = io.ReadFull(c.br, c.body)
	}
	if err != nil {
		return rep, err
	}
	rep.done = nowNS()
	rep.first = rep.done
	rep.body = append([]byte(nil), c.body...)
	return rep, nil
}

// readTrailer reads what follows the last chunk of a chunked body: trailer
// lines, of which the proxy sends none, and the blank line that ends them.
func (c *client) readTrailer() error {
	for {
		line, err := c.br.ReadSlice('\n')
		if err != nil || len(bytes.TrimRight(line, "\r\n")) == 0 {
			return err
		}
	}
}

// readHead reads the status line and the headers of one reply and returns
// how its body is framed.
func (c *client) readHead(rep *reply) (length int64, chunked bool, err error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, false, err
	}
	// "HTTP/1.1 200 OK"
	if f := bytes.Fields(line); len(f) >= 2 {
		rep.status, _ = strconv.Atoi(string(f[1]))
	}
	if rep.status == 0 {
		return 0, false, fmt.Errorf("bad status line %q", line)
	}
	for {
		line, err := c.br.ReadSlice('\n')
		if err != nil {
			return 0, false, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			return length, chunked, nil
		}
		name, value, _ := bytes.Cut(line, []byte(":"))
		value = bytes.TrimSpace(value)
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			length, err = strconv.ParseInt(string(value), 10, 64)
			if err != nil {
				return 0, false, err
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(value, []byte("chunked"))
		}
	}
}

var errStreamTruncated = errors.New("stream ended without a done or error event")

// readSSE reads events up to and including the terminal one ("done" or
// "error") and reports when the first "chunk" event and the terminal event
// had been read. A stream that ends first is an error.
func readSSE(br *bufio.Reader, now func() int64) (events []sseEvent, first, done int64, err error) {
	var ev sseEvent
	for {
		line, rerr := br.ReadSlice('\n')
		if rerr != nil {
			if rerr == io.EOF {
				rerr = errStreamTruncated
			}
			return events, first, done, rerr
		}
		line = bytes.TrimRight(line, "\r\n")
		switch {
		case len(line) == 0: // a blank line ends the event
			if ev.name == "" && ev.data == nil {
				continue
			}
			events = append(events, ev)
			switch ev.name {
			case "chunk":
				if first == 0 {
					first = now()
				}
			case "done", "error":
				done = now()
				if first == 0 {
					first = done
				}
				return events, first, done, nil
			}
			ev = sseEvent{}
		case bytes.HasPrefix(line, []byte("event: ")):
			ev.name = string(line[len("event: "):])
		case bytes.HasPrefix(line, []byte("data: ")):
			ev.data = append([]byte(nil), line[len("data: "):]...)
		}
	}
}

// answer is a checked reply, reduced to what the metrics need.
type answer struct {
	text   string
	source string
	cost   int64
	chunks int
}

// checkReply validates one reply against the surface's contract and
// returns the answer it carried. A non-nil error is a failed request.
func checkReply(rep reply, streamed bool) (answer, error) {
	if rep.err != nil {
		return answer{}, rep.err
	}
	if rep.status != http.StatusOK {
		return answer{}, fmt.Errorf("status %d: %s", rep.status, bytes.TrimSpace(rep.body))
	}
	if streamed {
		return checkStream(rep.events)
	}
	var cr proxy.CompletionResponse
	if err := json.Unmarshal(rep.body, &cr); err != nil {
		return answer{}, fmt.Errorf("bad reply JSON: %w", err)
	}
	if cr.Text == "" || cr.TraceID == "" {
		return answer{}, errors.New("reply has empty text or trace_id")
	}
	return answer{text: cr.Text, source: cr.Source, cost: cr.CostMicro}, nil
}

// checkStream validates one event stream: chunk indices contiguous from 0,
// the text after the last restart chunk concatenating to done.text, chunk
// costs summing to done.cost_micro_usd, and a done event at the end.
func checkStream(events []sseEvent) (answer, error) {
	if len(events) == 0 {
		return answer{}, errStreamTruncated
	}
	var text strings.Builder
	var cost int64
	chunks := 0
	for i, ev := range events {
		last := i == len(events)-1
		switch ev.name {
		case "chunk":
			if last {
				return answer{}, errStreamTruncated
			}
			var ch proxy.Chunk
			if err := json.Unmarshal(ev.data, &ch); err != nil {
				return answer{}, fmt.Errorf("bad chunk JSON: %w", err)
			}
			if ch.Index != chunks {
				return answer{}, fmt.Errorf("chunk index %d, want %d", ch.Index, chunks)
			}
			if ch.Restart {
				text.Reset()
			}
			text.WriteString(ch.Text)
			cost += int64(ch.Cost)
			chunks++
		case "done":
			if !last {
				return answer{}, errors.New("events after done")
			}
			var d proxy.StreamDone
			if err := json.Unmarshal(ev.data, &d); err != nil {
				return answer{}, fmt.Errorf("bad done JSON: %w", err)
			}
			switch {
			case d.Text == "" || d.TraceID == "":
				return answer{}, errors.New("done has empty text or trace_id")
			case d.Text != text.String():
				return answer{}, fmt.Errorf("chunks concatenate to %q, done.text is %q", text.String(), d.Text)
			case d.CostMicro != cost:
				return answer{}, fmt.Errorf("chunk costs sum to %d, done.cost_micro_usd is %d", cost, d.CostMicro)
			case d.Chunks != chunks:
				return answer{}, fmt.Errorf("read %d chunks, done.chunks is %d", chunks, d.Chunks)
			}
			return answer{text: d.Text, source: d.Source, cost: d.CostMicro, chunks: chunks}, nil
		case "error":
			return answer{}, fmt.Errorf("error event: %s", ev.data)
		default:
			return answer{}, fmt.Errorf("unknown event %q", ev.name)
		}
	}
	return answer{}, errStreamTruncated
}

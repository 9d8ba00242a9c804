package proxy

import (
	"errors"
	"math"
	"strconv"
	"unicode/utf8"
)

// The SSE event encoder: chunk and done events are appended into the
// response's one buffer as "event: <name>\ndata: <json>\n\n", and <json>
// is byte for byte what encoding/json produces for Chunk and StreamDone —
// field order, omitempty, HTML-safe string escaping and the float format —
// so the wire body of a stream does not depend on which of the two wrote
// it. TestSSEEventsMatchEncodingJSON and FuzzSSEEvent hold the two
// together; a field added to either struct has to be added here.

// errUnencodable ends a reply that holds a value JSON cannot carry (a
// non-finite number); errorBodyFor maps it to the "internal" code.
var errUnencodable = errors.New("proxy: reply cannot be encoded: non-finite number")

// appendChunkEvent appends ch as one chunk event; ok is false, and dst
// is to be discarded, when ch cannot be encoded.
func appendChunkEvent(dst []byte, ch *Chunk) (_ []byte, ok bool) {
	dst = append(dst, "event: chunk\ndata: {\"text\":"...)
	dst = appendJSONString(dst, ch.Text)
	dst = append(dst, `,"index":`...)
	dst = strconv.AppendInt(dst, int64(ch.Index), 10)
	dst = append(dst, `,"model":`...)
	dst = appendJSONString(dst, ch.Model)
	dst = append(dst, `,"tier":`...)
	dst = strconv.AppendInt(dst, int64(ch.Tier), 10)
	dst = append(dst, `,"confidence":`...)
	if dst, ok = appendJSONFloat(dst, ch.Confidence); !ok {
		return dst, false
	}
	dst = append(dst, `,"cost_micro_usd":`...)
	dst = strconv.AppendInt(dst, int64(ch.Cost), 10)
	if ch.Restart {
		dst = append(dst, `,"restart":true`...)
	}
	if ch.Final {
		dst = append(dst, `,"final":true`...)
	}
	return append(dst, "}\n\n"...), true
}

// appendDoneEvent appends d as the terminal done event; ok is as for
// appendChunkEvent.
func appendDoneEvent(dst []byte, d *StreamDone) (_ []byte, ok bool) {
	dst = append(dst, "event: done\ndata: {\"text\":"...)
	dst = appendJSONString(dst, d.Text)
	dst = append(dst, `,"model":`...)
	dst = appendJSONString(dst, d.Model)
	dst = append(dst, `,"source":`...)
	dst = appendJSONString(dst, d.Source)
	dst = append(dst, `,"tier":`...)
	dst = strconv.AppendInt(dst, int64(d.Tier), 10)
	dst = append(dst, `,"confidence":`...)
	if dst, ok = appendJSONFloat(dst, d.Confidence); !ok {
		return dst, false
	}
	dst = append(dst, `,"cost_micro_usd":`...)
	dst = strconv.AppendInt(dst, d.CostMicro, 10)
	dst = append(dst, `,"elapsed_ms":`...)
	if dst, ok = appendJSONFloat(dst, d.ElapsedMS); !ok {
		return dst, false
	}
	if d.TraceID != "" {
		dst = append(dst, `,"trace_id":`...)
		dst = appendJSONString(dst, d.TraceID)
	}
	dst = append(dst, `,"chunks":`...)
	dst = strconv.AppendInt(dst, int64(d.Chunks), 10)
	return append(dst, "}\n\n"...), true
}

// appendJSONFloat is encoding/json's float64 format: the shortest decimal
// that round-trips, in 'f' form except below 1e-6 and from 1e21, where it
// is 'e' form with the exponent's leading zero dropped (1e-07 is written
// 1e-7). A NaN or an infinity has no JSON form: ok is false.
func appendJSONFloat(dst []byte, f float64) (_ []byte, ok bool) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, true
}

const hexDigits = "0123456789abcdef"

// jsonPlain marks the ASCII bytes encoding/json copies into a string
// as they are with HTML escaping on (its default): everything from the
// space up except the quote, the backslash and <, >, &.
var jsonPlain = func() (plain [utf8.RuneSelf]bool) {
	for b := byte(' '); b < utf8.RuneSelf; b++ {
		plain[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return plain
}()

// appendJSONString is encoding/json's string encoding with HTML escaping
// on: the two-character escapes for quote, backslash, \b, \f, \n, \r and
// \t, \u00XX for the other control bytes and for <, >, &, \u2028 and
// \u2029 for the two separators JavaScript rejects, and \ufffd in place
// of each byte that is not valid UTF-8.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if jsonPlain[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

package llm

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/token"
)

// The reference plan: the stream as it was planned whole at open, from
// re-tokenized prefixes, with the noise hashed through hash/fnv and a
// fixed twenty-step square root. The lazy stream must equal it field for
// field and bill like refMeter.

func planChunks(m *SimModel, resp Response, key string) []Chunk {
	pieces := splitStream(resp.Text)
	n := len(pieces)
	chunks := make([]Chunk, n)
	prevCum := 0
	var prevCost token.Cost
	prefixLen := 0
	for i, piece := range pieces {
		prefixLen += len(piece)
		cum := token.Count(resp.Text[:prefixLen])
		if i == n-1 {
			// The final chunk trues the stream up to the billed counts
			// (Complete clamps empty outputs to one billable token).
			cum = resp.OutputTokens
		}
		if cum < prevCum {
			cum = prevCum
		}
		cost := m.price.ForTokens(resp.InputTokens, cum)
		conf := streamConfidence(m, key, i, n, resp.Confidence)
		chunks[i] = Chunk{
			Text:       piece,
			Index:      i,
			Confidence: conf,
			Cost:       cost - prevCost,
			Latency:    time.Duration(float64(resp.InputTokens+cum) / m.tokensPerSec * float64(time.Second)),
			Final:      i == n-1,
		}
		prevCum, prevCost = cum, cost
	}
	chunks[n-1].Latency = resp.Latency
	return chunks
}

func streamConfidence(m *SimModel, key string, i, n int, final float64) float64 {
	if i == n-1 {
		return final
	}
	ratio := float64(i+1) / float64(n)
	conf := streamPrior + (final-streamPrior)*sqrt20(ratio)
	conf += (refNoiseUnit(m.name, key, "stream"+strconv.Itoa(i)) - 0.5) * 2 * 0.03
	return clamp(conf, 0.02, 0.98)
}

func sqrt20(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 20; i++ {
		z = (z + x/z) / 2
	}
	return z
}

func splitStream(text string) []string {
	if text == "" {
		return []string{""}
	}
	var out []string
	start := 0
	inSpace := false
	for i := 0; i < len(text); i++ {
		switch c := text[i]; {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			inSpace = true
		default:
			if inSpace && i > start {
				out = append(out, text[start:i])
				start = i
			}
			inSpace = false
		}
	}
	out = append(out, text[start:])
	return out
}

func refNoiseUnit(model, prompt, salt string) float64 {
	h := fnv.New64a()
	h.Write([]byte(model))
	h.Write([]byte{0})
	h.Write([]byte(prompt))
	h.Write([]byte{0})
	h.Write([]byte(salt))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}

// refMeter is what the reference stream billed after delivering its
// first k chunks: each chunk's own tokens, the final chunk settling the
// stream at the full billed count.
func refMeter(resp Response, chunks []Chunk, k int) token.Meter {
	var mt token.Meter
	billed := 0
	for _, ch := range chunks[:k] {
		out := token.Count(ch.Text)
		if ch.Final {
			out = max(resp.OutputTokens-billed, 0)
		}
		if ch.Index == 0 {
			mt.Calls++
			mt.InputTokens += resp.InputTokens
		}
		mt.OutputTokens += out
		mt.Spend += ch.Cost
		billed += out
	}
	return mt
}

// streamPieces are the fragments answer texts are drawn from: ASCII
// words, every whitespace the chunker or the tokenizer treats specially
// (tab, CR/LF, NBSP, an ideographic space), multibyte letters, invalid
// UTF-8, punctuation and words longer than token.MaxPiece.
var streamPieces = []string{
	"the", "revenue", "Q3", "42", " ", "  ", "\t", "\r\n", "\n", " ", "　",
	"日本語", "straße", "naïve", "\xff", "\xe6\x97", "\x80abc", ",", ".", "!?", "-",
	"internationalization", "ABCDEFGHIJKLMNOP", "x" + strings.Repeat("y", 2*token.MaxPiece),
}

func randomAnswer(rng *rand.Rand) string {
	var b strings.Builder
	for n := rng.Intn(24); n > 0; n-- {
		b.WriteString(streamPieces[rng.Intn(len(streamPieces))])
		if rng.Intn(3) > 0 {
			b.WriteByte(' ')
		}
	}
	return b.String()
}

// checkStreamEqualsPlan opens the stream for a request whose answer is
// text (right or wrong) and requires every chunk to equal the reference
// plan's, and the meter after a Close at every k to equal the reference's
// first-k bill.
func checkStreamEqualsPlan(t *testing.T, m *SimModel, prompt, text string, difficulty float64) {
	t.Helper()
	req := Request{Prompt: prompt, Gold: text, Wrong: text, Difficulty: difficulty}
	if text == "" {
		req.Difficulty = 0 // an empty Wrong is the hedge answer
	}
	resp, _ := m.adjudicate(req)
	if resp.Text != text {
		t.Fatalf("adjudicated %q, want %q", resp.Text, text)
	}
	ref := planChunks(m, resp, prompt)
	for k := 0; k <= len(ref); k++ {
		m.ResetMeter()
		s, err := m.GenerateStream(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < k; i++ {
			ch, err := s.Recv()
			if err != nil {
				t.Fatalf("%q: Recv %d of %d: %v", text, i, len(ref), err)
			}
			if ch != ref[i] {
				t.Fatalf("%q: chunk %d = %+v, reference %+v", text, i, ch, ref[i])
			}
		}
		if k == len(ref) {
			if _, err := s.Recv(); err == nil {
				t.Fatalf("%q: a chunk after the final one", text)
			}
			if got, want := m.Meter(), (token.Meter{Calls: 1, InputTokens: resp.InputTokens, OutputTokens: resp.OutputTokens, Spend: resp.Cost}); got != want {
				t.Fatalf("%q: drained meter %+v, Complete bills %+v", text, got, want)
			}
		}
		s.Close()
		if _, err := s.Recv(); !errors.Is(err, ErrStreamClosed) {
			t.Fatalf("%q: Recv after Close: %v", text, err)
		}
		if got, want := m.Meter(), refMeter(resp, ref, k); got != want {
			t.Fatalf("%q: meter after %d of %d chunks = %+v, reference %+v", text, k, len(ref), got, want)
		}
	}
}

func TestSimStreamEqualsPlan(t *testing.T) {
	m := newStreamTestModel(t, 0.6)
	texts := []string{"", " ", "word", "trailing space ", "  leading", "a\tb\r\nc d", "\xff \xe6\x97 x", "supercalifragilistic expialidocious"}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		texts = append(texts, randomAnswer(rng))
	}
	for i, text := range texts {
		checkStreamEqualsPlan(t, m, fmt.Sprintf("prompt %d about streams", i), text, rng.Float64())
	}
}

func FuzzSimStreamEqualsPlan(f *testing.F) {
	f.Add("what is the revenue", "the revenue was 4.2 million dollars ", 0.4)
	f.Add("p", "", 0.0)
	f.Add("p", "\xff\t 日本語 internationalization\r\n", 0.9)
	m := NewSim(SimConfig{Name: "fuzz", Capability: 0.6, Price: token.Price{InputPer1K: 1000, OutputPer1K: 2000}, Obs: obs.NewRegistry()})
	f.Fuzz(func(t *testing.T, prompt, text string, difficulty float64) {
		if prompt == "" || len(text) > 4096 {
			t.Skip()
		}
		checkStreamEqualsPlan(t, m, prompt, text, difficulty)
	})
}

// Opening and draining a 14-word stream under an unkept trace allocates
// only the stream itself; planning and counting allocate nothing per
// chunk, and counting takes no pooled buffer, so this holds under -race
// too.
func TestSimStreamAllocs(t *testing.T) {
	m := newStreamTestModel(t, 0.9)
	ctx, _ := obs.NewTracer(1).StartSampled(context.Background(), "test", false)
	req := Request{Prompt: "benchmark question 7 about streamed serving", Gold: "a fourteen word answer so that the tier streams it as fourteen separate chunks", Difficulty: 0.3}
	got := testing.AllocsPerRun(100, func() {
		s, err := m.GenerateStream(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		for {
			if _, err := s.Recv(); err != nil {
				break
			}
		}
	})
	if got > 1 {
		t.Fatalf("open + drain allocates %v times, want at most 1", got)
	}
}

// The schedule's square root equals twenty Newton steps bit for bit.
func TestSqrtEqualsTwentySteps(t *testing.T) {
	for n := 1; n <= 3000; n++ {
		for i := 0; i < n; i++ {
			x := float64(i+1) / float64(n)
			if got, want := sqrt(x), sqrt20(x); got != want {
				t.Fatalf("sqrt(%d/%d) = %v, twenty steps give %v", i+1, n, got, want)
			}
		}
	}
}

func TestNoiseUnitEqualsFNV(t *testing.T) {
	for i := 0; i < 1000; i++ {
		model, prompt, salt := fmt.Sprint("m", i%7), strings.Repeat("p", i%13)+strconv.Itoa(i), "stream"+strconv.Itoa(i)
		if got, want := noiseUnit(model, prompt, salt), refNoiseUnit(model, prompt, salt); got != want {
			t.Fatalf("noiseUnit(%q, %q, %q) = %v, hash/fnv gives %v", model, prompt, salt, got, want)
		}
		if got, want := unitFloat(fnvFoldInt(fnvFold(noisePrefix(model, prompt), "stream"), i)), refNoiseUnit(model, prompt, salt); got != want {
			t.Fatalf("folded digits of %d = %v, hash/fnv gives %v", i, got, want)
		}
	}
}

// A call folds its noise prefix once and shares it: the prefix adjudicate
// returns gives every salt the value noiseUnit gives the call's key, which
// is NoiseKey when set and the prompt otherwise.
func TestSharedNoisePrefixEqualsNoiseUnit(t *testing.T) {
	m := newStreamTestModel(t, 0.5)
	const question = "Q: where was Mei born?"
	for _, tc := range []struct {
		name string
		req  Request
		key  string
	}{
		{"prompt", Request{Prompt: question, Gold: "Kyoto", Difficulty: 0.5}, question},
		{"noise key", Request{Prompt: "Context: Mei was born in Kyoto.\n" + question, Gold: "Kyoto", Difficulty: 0.5, NoiseKey: question}, question},
	} {
		_, prefix := m.adjudicate(tc.req)
		for _, salt := range []string{"correct", "conf", "wrongpick", "stream"} {
			if got, want := noiseAt(prefix, salt), noiseUnit(m.name, tc.key, salt); got != want {
				t.Errorf("%s: salt %q: shared prefix gives %v, noiseUnit(%q, %q) gives %v", tc.name, salt, got, m.name, tc.key, want)
			}
		}
	}
}

// refWrongPick is the wrong-answer pick that built its candidate list.
func refWrongPick(m *SimModel, key string, req Request) string {
	cands := make([]string, 0, 1+len(req.WrongAlts))
	if req.Wrong != "" {
		cands = append(cands, req.Wrong)
	}
	cands = append(cands, req.WrongAlts...)
	if len(cands) == 0 {
		return "I am not certain."
	}
	pick := int(noiseUnit(m.name, key, "wrongpick") * float64(len(cands)))
	if pick >= len(cands) {
		pick = len(cands) - 1
	}
	return cands[pick]
}

func TestWrongPickEqualsCandidateList(t *testing.T) {
	m := newStreamTestModel(t, 0) // capability 0 errs on every difficulty-1 request
	alts := []string{"alt one", "alt two", "alt three"}
	for _, wrong := range []string{"", "wrong"} {
		for n := 0; n <= len(alts); n++ {
			seen := map[string]bool{}
			for i := 0; i < 200; i++ {
				req := Request{Prompt: fmt.Sprintf("question %d", i), Gold: "gold", Wrong: wrong, WrongAlts: alts[:n], Difficulty: 1}
				resp, _ := m.adjudicate(req)
				if resp.Correct {
					t.Fatalf("%+v answered correctly", req)
				}
				if want := refWrongPick(m, req.Prompt, req); resp.Text != want {
					t.Fatalf("Wrong %q with %d alternatives, %q: picked %q, reference %q", wrong, n, req.Prompt, resp.Text, want)
				}
				seen[resp.Text] = true
			}
			want := n
			if wrong != "" {
				want++
			}
			if want == 0 {
				want = 1 // the hedge
			}
			if len(seen) != want {
				t.Fatalf("Wrong %q with %d alternatives: picked %d distinct answers, want %d", wrong, n, len(seen), want)
			}
		}
	}
}

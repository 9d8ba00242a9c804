package main

import (
	"encoding/json"
	"math"
	"sort"
	"strconv"

	"repro/internal/proxy"
)

// spec is one workload: the traffic shape and the proxy configuration it
// runs against. BENCHMARK.json and bench/README.md record why each exists;
// the names are fixed because later issues refer to them.
type spec struct {
	name string
	// universe is the number of popular prompts requests draw from, by rank
	// (0 = every request is a never-seen prompt). zipfS is the popularity
	// exponent over that universe (0 = uniform).
	universe int
	zipfS    float64
	// prefill is how many prompts (ranks 0..prefill-1) are sent once during
	// set-up so the cache holds them before the warm-up starts.
	prefill int
	// cacheCap is proxy.Config.CacheCapacity; noCache disables the cache.
	cacheCap int
	noCache  bool
	// paraphrase sends each popular prompt with a trailing "?", which misses
	// the cache's exact map and hits semantically.
	paraphrase bool
	// coldEvery makes every n-th request a never-seen, trivially easy prompt
	// (0 = none). The hit workloads need this trickle: without it they spend
	// nothing, and the contract wants metrics that are never 0.
	coldEvery int
	// easy keeps every popular prompt's difficulty under 0.15, where each
	// tier answers correctly, so accuracy does not hinge on whether one
	// heavily weighted prompt was answered wrong at prefill.
	easy bool
	// stream selects the SSE surface; goldWords is the gold answer's length.
	stream    bool
	goldWords int
	tenants   int
	// batchShare is the share of requests sent with priority "batch".
	batchShare float64
	// paced wraps each tier in llm.NewPaced(m, 100) and turns the scheduler
	// and the limiter on.
	paced bool
	// sloMS is the fixed latency limit behind slo_attainment; it applies to
	// time-to-first-token on the streamed workload.
	sloMS float64
	// minCache/maxCache bound the share of replies with source "cache";
	// minCascade bounds the share with source "cascade".
	minCache, maxCache, minCascade float64
}

// newPromptBase is the first id of never-seen prompts; popular prompts use
// their rank (< universe) as id, so the two ranges never meet.
const newPromptBase = 10_000_000

// ladderBase is the first request index the traced pass replays. The window
// consumes indices from 0 upward and never reaches it, so the never-seen
// prompts of the traced pass are new to the proxy too.
const ladderBase = 1 << 40

func specs(small bool) []spec {
	rows, hot, mixU, mixRows := 16384, 512, 8192, 1024
	mixMin, mixMax := 0.08, 0.22
	if small { // the smoke test: same shapes, set-up in milliseconds
		rows, hot, mixU, mixRows = 384, 64, 512, 96
		mixMin, mixMax = 0.02, 0.45 // a hundred requests: a share good to ten points
	}
	return []spec{
		{name: "hot_exact", universe: hot, zipfS: 1.1, prefill: hot, cacheCap: 10000, coldEvery: 256, easy: true,
			goldWords: 4, tenants: 8, sloMS: 1, minCache: 0.99, maxCache: 1},
		// Capacity leaves room above the prefilled rows for the cold
		// trickle's puts: at capacity each would evict a live row, whose
		// next request would miss, put and evict again.
		{name: "semantic_read", universe: rows, prefill: rows, cacheCap: rows + rows/4, paraphrase: true, coldEvery: 256,
			goldWords: 4, sloMS: 10, minCache: 0.95, maxCache: 1},
		{name: "churn_write", prefill: rows, cacheCap: rows,
			goldWords: 4, sloMS: 15, maxCache: 0.01, minCascade: 0.99},
		{name: "stream_cascade", noCache: true, stream: true,
			goldWords: 14, sloMS: 3, maxCache: 0, minCascade: 0.99},
		// One request in seven hits: the median is a first-tier paced answer
		// and the upper quartile an escalation, each well inside its mode. At a
		// third hits the upper quartile sat on the edge between the two, and a
		// point of hit share moved it by half.
		{name: "paced_mix", universe: mixU, zipfS: 0.2, prefill: mixRows, cacheCap: mixRows, paced: true,
			goldWords: 4, tenants: 8, batchShare: 0.25, sloMS: 60, minCache: mixMin, maxCache: mixMax},
	}
}

func specByName(name string, small bool) (spec, bool) {
	for _, s := range specs(small) {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// request is one generated request, ready to send.
type request struct {
	// id names the prompt: a popularity rank, or newPromptBase+index.
	id     int
	tenant string
	body   []byte // the JSON body of POST /v1/complete
	fields proxy.CompletionRequest
	// cold marks a never-seen prompt, which cannot be a cache hit.
	cold bool
}

// generator makes request i a pure function of (seed, workload, i): the same
// seed gives a byte-identical sequence, clients can draw indices from one
// shared counter without sharing generator state, and the traced pass can
// replay any index.
type generator struct {
	sp   spec
	seed uint64
	cdf  []float64 // cumulative popularity over the universe
}

func newGenerator(sp spec, seed uint64) *generator {
	g := &generator{sp: sp, seed: mix64(seed ^ hashString(sp.name))}
	if sp.universe > 0 {
		g.cdf = make([]float64, sp.universe)
		sum := 0.0
		for r := range g.cdf {
			sum += math.Pow(float64(r+1), -sp.zipfS)
			g.cdf[r] = sum
		}
		for r := range g.cdf {
			g.cdf[r] /= sum
		}
	}
	return g
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// unit maps (seed, a, b) to a uniform value in [0,1).
func (g *generator) unit(a, b uint64) float64 {
	return float64(mix64(g.seed^mix64(a)^mix64(b+0x51ed))>>11) / float64(1<<53)
}

var (
	onsets = []string{"b", "br", "d", "dr", "f", "g", "gl", "h", "k", "kr", "l", "m", "n", "p", "pr", "r", "s", "st", "t", "tr", "v", "z"}
	vowels = []string{"a", "e", "i", "o", "u", "ai", "ou", "ea"}
	codas  = []string{"", "n", "r", "s", "l", "m", "x", "th"}
)

// appendWord appends a pronounceable two- or three-syllable word chosen by h.
func appendWord(dst []byte, h uint64) []byte {
	syll := 2 + int(h&1)
	h >>= 1
	for s := 0; s < syll; s++ {
		dst = append(dst, onsets[h%uint64(len(onsets))]...)
		h /= uint64(len(onsets))
		dst = append(dst, vowels[h%uint64(len(vowels))]...)
		h /= uint64(len(vowels))
	}
	return append(dst, codas[h%uint64(len(codas))]...)
}

// promptWords is the prompt length in words: long enough that a trailing
// "?" moves the embedding by less than the cache's 0.97 hit threshold.
const promptWords = 12

// prompt is the text of prompt id: words drawn independently per prompt, so
// two prompts are far apart in embedding space, closed by the id so no two
// are equal.
func (g *generator) prompt(id int) string {
	b := make([]byte, 0, 128)
	for w := 0; w < promptWords; w++ {
		b = appendWord(b, mix64(g.seed^mix64(uint64(id))^uint64(w)<<56))
		b = append(b, ' ')
	}
	b = append(b, "ref "...)
	b = strconv.AppendInt(b, int64(id), 10)
	return string(b)
}

// gold is the correct answer to prompt id.
func (g *generator) gold(id int) string {
	b := make([]byte, 0, 128)
	for w := 0; w < g.sp.goldWords; w++ {
		if w > 0 {
			b = append(b, ' ')
		}
		b = appendWord(b, mix64(g.seed^mix64(uint64(id)+0x9e37)^uint64(w)<<48))
	}
	return string(b)
}

// difficulty spreads prompt ids evenly over [0,1) (the golden-ratio
// sequence), so every window sees early accepts and full escalations in
// the same proportions.
func (g *generator) difficulty(id int) float64 {
	d := math.Mod(float64(id+1)*0.6180339887498949, 1)
	if g.sp.easy {
		d *= 0.15
	}
	return d
}

// rank draws a popularity rank for request i.
func (g *generator) rank(i int) int {
	u := g.unit(uint64(i), 1)
	r := sort.SearchFloat64s(g.cdf, u)
	if r >= len(g.cdf) {
		r = len(g.cdf) - 1
	}
	return r
}

// request generates request i of the measured stream.
func (g *generator) request(i int) request {
	sp := g.sp
	var r request
	switch {
	case sp.coldEvery > 0 && i%sp.coldEvery == sp.coldEvery-1:
		r = g.build(newPromptBase+i, false)
		r.fields.Difficulty = 0 // trivial: the first tier answers and is accepted
		r.cold = true
	case sp.universe == 0:
		r = g.build(newPromptBase+i, false)
		r.cold = true
	default:
		r = g.build(g.rank(i), sp.paraphrase)
	}
	if sp.tenants > 0 {
		r.tenant = "tenant-" + strconv.Itoa(int(g.unit(uint64(i), 2)*float64(sp.tenants)))
	}
	if sp.batchShare > 0 && g.unit(uint64(i), 3) < sp.batchShare {
		r.fields.Priority = "batch"
	}
	r.encode()
	return r
}

// prefillRequest generates the set-up request that puts prompt id in the cache.
func (g *generator) prefillRequest(id int) request {
	r := g.build(id, false)
	r.encode()
	return r
}

func (g *generator) build(id int, paraphrase bool) request {
	p := g.prompt(id)
	f := proxy.CompletionRequest{Task: "qa", Prompt: p, Gold: g.gold(id), Difficulty: g.difficulty(id), Stream: g.sp.stream}
	if paraphrase {
		// The noise key makes the rephrasing succeed or fail together with
		// the prompt it rephrases, as llm.Request.NoiseKey documents.
		f.Prompt, f.NoiseKey = p+"?", p
	}
	return request{id: id, fields: f}
}

func (r *request) encode() {
	b, err := json.Marshal(r.fields)
	if err != nil {
		panic(err) // a struct of strings and numbers always marshals
	}
	r.body = b
}

package llm

import "strconv"

// FNV-1a (64-bit) parameters. The noise streams fold their keys onto a
// state byte by byte, so a caller can keep the state of a shared prefix
// and fold only what varies.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// noiseUnit maps (model, prompt, salt) to a deterministic uniform value in
// [0, 1). It is the reproduction's replacement for API nondeterminism:
// stable across runs, uncorrelated across prompts and models.
func noiseUnit(model, prompt, salt string) float64 {
	return noiseAt(noisePrefix(model, prompt), salt)
}

// noiseAt is noiseUnit for a prefix already folded by noisePrefix, so the
// several noise streams of one call hash the model and prompt once.
func noiseAt(prefix uint64, salt string) float64 {
	return unitFloat(fnvFold(prefix, salt))
}

// noisePrefix is the FNV-1a state of "model\x00prompt\x00", the prefix
// every noise stream of one (model, prompt) hashes before its salt.
func noisePrefix(model, prompt string) uint64 {
	h := fnvFold(fnvOffset, model)
	h = fnvFold(h, "\x00")
	h = fnvFold(h, prompt)
	return fnvFold(h, "\x00")
}

// fnvFold folds s onto the FNV-1a state h.
func fnvFold(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

// fnvFoldInt folds i's decimal digits onto h, as fnvFold would fold
// strconv.Itoa(i), without building the string.
func fnvFoldInt(h uint64, i int) uint64 {
	var buf [20]byte
	for _, c := range strconv.AppendInt(buf[:0], int64(i), 10) {
		h = (h ^ uint64(c)) * fnvPrime
	}
	return h
}

// unitFloat maps an FNV state to a uniform value in [0, 1). A splitmix64
// finalizer avalanches the state first — FNV alone mixes the high bits of
// short, suffix-varying inputs poorly.
func unitFloat(x uint64) float64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	// 53 bits give a uniform float in [0,1).
	return float64(x>>11) / float64(1<<53)
}

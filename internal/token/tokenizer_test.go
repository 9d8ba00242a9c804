package token

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenizeBasic(t *testing.T) {
	got := Tokenize("Show the names of stadiums")
	want := []string{"show", "the", "names", "of", "stadiu", "ms"}
	if len(got) != len(want) {
		t.Fatalf("Tokenize returned %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestTokenizePunctuation(t *testing.T) {
	got := Tokenize("a,b.c")
	want := []string{"a", ",", "b", ".", "c"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("Tokenize(%q) = %v, want %v", "a,b.c", got, want)
	}
}

func TestTokenizeEmpty(t *testing.T) {
	if got := Tokenize(""); len(got) != 0 {
		t.Errorf("Tokenize(\"\") = %v, want empty", got)
	}
	if got := Count("   \t\n "); got != 0 {
		t.Errorf("Count(whitespace) = %d, want 0", got)
	}
}

func TestTokenizeLongWordSplit(t *testing.T) {
	got := Tokenize("internationalization")
	// 20 runes -> pieces of 6,6,6,2.
	if len(got) != 4 {
		t.Fatalf("Tokenize long word: got %d pieces %v, want 4", len(got), got)
	}
	if strings.Join(got, "") != "internationalization" {
		t.Errorf("pieces do not reassemble the word: %v", got)
	}
}

func TestTokenizeUnicode(t *testing.T) {
	got := Tokenize("日本語 test")
	if len(got) == 0 {
		t.Fatal("Tokenize unicode returned no tokens")
	}
}

func TestCountMatchesTokenize(t *testing.T) {
	f := func(s string) bool {
		return Count(s) == len(Tokenize(s))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTokenizeDeterministic(t *testing.T) {
	f := func(s string) bool {
		a := Tokenize(s)
		b := Tokenize(s)
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
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTokenizeCaseInsensitive(t *testing.T) {
	a := Tokenize("SELECT Name FROM Stadium")
	b := Tokenize("select name from stadium")
	if strings.Join(a, "|") != strings.Join(b, "|") {
		t.Errorf("tokenization is case sensitive: %v vs %v", a, b)
	}
}

func TestEachMatchesTokenize(t *testing.T) {
	var tok Tokenizer
	f := func(s string) bool {
		want := Tokenize(s)
		var got []string
		tok.Each(s, func(piece []byte) { got = append(got, string(piece)) })
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// tokenizerInputs generates adversarial tokenizer inputs: dense unicode,
// punctuation runs, words far beyond MaxPiece, and boundary whitespace —
// the classes where Count and Tokenize historically risk diverging.
func tokenizerInputs() []string {
	long := strings.Repeat("überlängenwörter", 40)
	return []string{
		"",
		" ",
		"\t\n\r ",
		"a",
		".",
		"...!!!???,,,",
		"word",
		"word.",
		".word",
		"a,b.c;d:e",
		long,
		long + " " + long,
		"日本語のテキスト処理",
		"ελληνικά και ΚΕΦΑΛΑΙΑ",
		"mixedASCIIと日本語123",
		"emoji 🚀🔥 inside",
		"combining á marks",
		"tab\tseparated\nlines\rhere",
		"123456789012345678901234567890",
		"under_score-dash",
		strings.Repeat("🚀", 25),
		strings.Repeat("x", 1) + strings.Repeat("𝔘", 13),
		" nbsp separated words",
	}
}

// TestCountMatchesTokenizeAdversarial pins Count(s) == len(Tokenize(s)) on
// hand-built unicode / punctuation / long-word inputs in addition to the
// quick.Check fuzzing above. Both are one walk, Count's without a piece
// sink, so a divergence means the walk counts differently from what it
// emits.
func TestCountMatchesTokenizeAdversarial(t *testing.T) {
	for _, s := range tokenizerInputs() {
		if got, want := Count(s), len(Tokenize(s)); got != want {
			t.Errorf("Count(%.40q) = %d, len(Tokenize) = %d", s, got, want)
		}
	}
}

// FuzzCountMatchesTokenize holds Count(s) == len(Tokenize(s)) on inputs
// the fuzzer shapes, seeded with the adversarial inputs above.
func FuzzCountMatchesTokenize(f *testing.F) {
	for _, s := range tokenizerInputs() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := Count(s), len(Tokenize(s)); got != want {
			t.Errorf("Count(%q) = %d, len(Tokenize) = %d", s, got, want)
		}
	})
}

func TestTokenizePiecesRespectMaxPiece(t *testing.T) {
	for _, s := range tokenizerInputs() {
		for _, p := range Tokenize(s) {
			if n := len([]rune(p)); n > MaxPiece {
				t.Errorf("piece %q has %d runes, max %d", p, n, MaxPiece)
			}
		}
	}
}

func TestCountZeroAlloc(t *testing.T) {
	text := strings.Repeat("What are the names of stadiums that had concerts in 2014? ", 20)
	if n := testing.AllocsPerRun(100, func() { Count(text) }); n > 0 {
		t.Errorf("Count allocates %v times per call, want 0", n)
	}
}

func BenchmarkEach(b *testing.B) {
	var tok Tokenizer
	text := strings.Repeat("What are the names of stadiums that had concerts in 2014? ", 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tok.Each(text, func([]byte) {})
	}
}

func BenchmarkTokenize(b *testing.B) {
	text := strings.Repeat("What are the names of stadiums that had concerts in 2014? ", 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Tokenize(text)
	}
}

func BenchmarkCount(b *testing.B) {
	text := strings.Repeat("What are the names of stadiums that had concerts in 2014? ", 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Count(text)
	}
}

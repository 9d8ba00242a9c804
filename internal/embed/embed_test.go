package embed

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTextDeterministic(t *testing.T) {
	e := New(DefaultDim)
	a := e.Text("show the names of stadiums")
	b := e.Text("show the names of stadiums")
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("embedding not deterministic at dim %d", i)
		}
	}
}

func TestTextNormalized(t *testing.T) {
	e := New(64)
	v := e.Text("hello world")
	if n := Norm(v); math.Abs(n-1) > 1e-5 {
		t.Errorf("norm = %v, want 1", n)
	}
}

func TestEmptyTextIsZero(t *testing.T) {
	e := New(32)
	v := e.Text("")
	if Norm(v) != 0 {
		t.Errorf("empty text embedding should be zero, norm %v", Norm(v))
	}
}

func TestSimilarTextsCloserThanDissimilar(t *testing.T) {
	e := New(DefaultDim)
	q := e.Text("What are the names of stadiums that had concerts in 2014?")
	near := e.Text("Show the names of stadiums that had concerts in 2014")
	far := e.Text("predict the execution time of this analytical join query")
	if Cosine(q, near) <= Cosine(q, far) {
		t.Errorf("similar pair %.3f not closer than dissimilar %.3f",
			Cosine(q, near), Cosine(q, far))
	}
}

func TestRowSchemaSensitivity(t *testing.T) {
	e := New(DefaultDim)
	a := e.Row([]string{"name", "city"}, []string{"Anfield", "Liverpool"})
	b := e.Row([]string{"player", "team"}, []string{"Anfield", "Liverpool"})
	if Cosine(a, b) > 0.999 {
		t.Errorf("rows with different schemas collapse: cos=%v", Cosine(a, b))
	}
}

func TestColumnEmbedding(t *testing.T) {
	e := New(DefaultDim)
	c1 := e.Column("country", []string{"USA", "UK", "France"})
	c2 := e.Column("nation", []string{"USA", "UK", "Germany"})
	c3 := e.Column("salary", []string{"52000", "61000", "48000"})
	if Cosine(c1, c2) <= Cosine(c1, c3) {
		t.Errorf("country/nation %.3f should exceed country/salary %.3f",
			Cosine(c1, c2), Cosine(c1, c3))
	}
}

func TestImageEmbedding(t *testing.T) {
	e := New(DefaultDim)
	a := e.Image("chest x-ray of patient", []float64{0.2, 0.9})
	b := e.Image("chest x-ray scan", []float64{0.21, 0.88})
	c := e.Image("stadium aerial photo", []float64{0.9, 0.1})
	if Cosine(a, b) <= Cosine(a, c) {
		t.Errorf("similar images %.3f not closer than dissimilar %.3f",
			Cosine(a, b), Cosine(a, c))
	}
}

func TestCosineBounds(t *testing.T) {
	e := New(48)
	f := func(s1, s2 string) bool {
		a, b := e.Text(s1), e.Text(s2)
		c := Cosine(a, b)
		return c >= -1.0001 && c <= 1.0001
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCosineSelf(t *testing.T) {
	e := New(48)
	v := e.Text("semantic cache lookup")
	if c := Cosine(v, v); math.Abs(c-1) > 1e-5 {
		t.Errorf("Cosine(v,v) = %v, want 1", c)
	}
}

func TestL2AndDotConsistent(t *testing.T) {
	a := Vector{1, 0, 0}
	b := Vector{0, 1, 0}
	if d := L2(a, b); math.Abs(d-math.Sqrt2) > 1e-9 {
		t.Errorf("L2 = %v, want sqrt(2)", d)
	}
	if d := Dot(a, b); d != 0 {
		t.Errorf("Dot = %v, want 0", d)
	}
}

func TestNewPanicsOnBadDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) did not panic")
		}
	}()
	New(0)
}

// Regression: Cosine on mismatched lengths used to index past the shorter
// vector and panic. The documented behavior is now similarity 0.
func TestCosineMismatchedLengths(t *testing.T) {
	a := Vector{1, 0, 0}
	b := Vector{1, 0}
	if c := Cosine(a, b); c != 0 {
		t.Errorf("Cosine(len 3, len 2) = %v, want 0", c)
	}
	if c := Cosine(b, a); c != 0 {
		t.Errorf("Cosine(len 2, len 3) = %v, want 0", c)
	}
	if c := Cosine(nil, Vector{1}); c != 0 {
		t.Errorf("Cosine(nil, len 1) = %v, want 0", c)
	}
	if c := Cosine(nil, nil); c != 0 {
		t.Errorf("Cosine(nil, nil) = %v, want 0", c)
	}
}

func TestDotL2CommonPrefix(t *testing.T) {
	a := Vector{1, 2, 3}
	b := Vector{4, 5}
	if d := Dot(a, b); d != 14 {
		t.Errorf("Dot over prefix = %v, want 14", d)
	}
	if d := Dot(b, a); d != 14 {
		t.Errorf("Dot over prefix (swapped) = %v, want 14", d)
	}
	want := math.Sqrt(9 + 9)
	if d := L2(a, b); math.Abs(d-want) > 1e-9 {
		t.Errorf("L2 over prefix = %v, want %v", d, want)
	}
	if d := SqL2(b, a); math.Abs(d-18) > 1e-9 {
		t.Errorf("SqL2 over prefix = %v, want 18", d)
	}
}

func TestTextScratchRoundTrip(t *testing.T) {
	e := New(DefaultDim)
	want := e.Text("prompt store retrieval")
	for i := 0; i < 3; i++ {
		vp := e.TextScratch("prompt store retrieval")
		if !vecsEqual(*vp, want) {
			t.Fatalf("TextScratch iteration %d differs from Text", i)
		}
		e.ReleaseScratch(vp)
	}
	// Releasing nil or a foreign, wrong-sized vector must not poison the pool.
	e.ReleaseScratch(nil)
	small := make(Vector, 3)
	e.ReleaseScratch(&small)
	if vp := e.TextScratch("after foreign release"); len(*vp) != DefaultDim {
		t.Errorf("scratch vector len %d after foreign release", len(*vp))
	} else {
		e.ReleaseScratch(vp)
	}
}

// TestTextAllocBudget pins the tentpole's allocation budget: one embedding
// must cost at most 1 allocation (the result vector) plus a small slack for
// pool refills. The race detector instruments allocations, so the budget is
// only checked in non-race builds.
func TestTextAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is inflated under -race")
	}
	e := New(DefaultDim)
	const text = "What are the names of stadiums that had concerts in 2014 or sports meetings in 2015?"
	if n := testing.AllocsPerRun(200, func() { e.Text(text) }); n > 8 {
		t.Errorf("Text allocates %v times per call, budget 8", n)
	}
	if n := testing.AllocsPerRun(200, func() { e.ReleaseScratch(e.TextScratch(text)) }); n > 0 {
		t.Errorf("TextScratch+Release allocates %v times per call, budget 0", n)
	}
}

func TestScratchConcurrent(t *testing.T) {
	e := New(DefaultDim)
	texts := []string{"alpha beta", "gamma delta", "epsilon zeta", "eta theta"}
	wants := make([]Vector, len(texts))
	for i, s := range texts {
		wants[i] = e.Text(s)
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := 0; i < 200; i++ {
				j := (g + i) % len(texts)
				vp := e.TextScratch(texts[j])
				ok := vecsEqual(*vp, wants[j])
				e.ReleaseScratch(vp)
				if !ok {
					done <- errInterleaved
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

var errInterleaved = errScratch("scratch vector corrupted by concurrent use")

type errScratch string

func (e errScratch) Error() string { return string(e) }

func BenchmarkText(b *testing.B) {
	e := New(DefaultDim)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Text("What are the names of stadiums that had concerts in 2014 or sports meetings in 2015?")
	}
}

package prompt

import (
	"strings"
	"testing"

	"repro/internal/embed"
)

func newStore(budget int) *Store {
	return NewStore(embed.New(embed.DefaultDim), budget)
}

func TestAddSelectSimilarity(t *testing.T) {
	s := newStore(0)
	s.Add(Example{Input: "names of stadiums with concerts in 2014", Output: "SELECT ..."})
	s.Add(Example{Input: "predict execution time of a join query", Output: "42ms"})
	s.Add(Example{Input: "stadiums that had concerts in 2015", Output: "SELECT ..."})

	sel := s.Select("stadiums that had concerts in 2013", 2, BySimilarity)
	if len(sel) != 2 {
		t.Fatalf("selected %d", len(sel))
	}
	for _, x := range sel {
		if !strings.Contains(x.Example.Input, "stadiums") {
			t.Errorf("selected unrelated example %q", x.Example.Input)
		}
	}
}

func TestPerformanceAwareReordersByReward(t *testing.T) {
	s := newStore(0)
	// Two near-identical examples; the second accumulates bad reward.
	good := s.Add(Example{Input: "stadiums with concerts in 2014", Output: "A"})
	bad := s.Add(Example{Input: "stadiums with concerts in 2015", Output: "B"})
	for i := 0; i < 5; i++ {
		s.Feedback(good, 1)
		s.Feedback(bad, 0)
	}
	sel := s.Select("stadiums with concerts in 2016", 1, ByPerformance)
	if len(sel) != 1 || sel[0].ID != good {
		t.Errorf("performance-aware selection picked %v", sel)
	}
}

func TestFeedbackAccumulates(t *testing.T) {
	s := newStore(0)
	id := s.Add(Example{Input: "x", Output: "y"})
	s.Feedback(id, 1)
	s.Feedback(id, 0)
	sel := s.Select("x", 1, BySimilarity)
	if sel[0].Example.Uses != 2 || sel[0].Example.MeanReward() != 0.5 {
		t.Errorf("feedback state wrong: %+v", sel[0].Example)
	}
	// Feedback on a missing ID must be a no-op, not a panic.
	s.Feedback(999, 1)
}

func TestBudgetEvictsLowestReward(t *testing.T) {
	s := newStore(3)
	a := s.Add(Example{Input: "aaaa", Output: "1"})
	b := s.Add(Example{Input: "bbbb", Output: "2"})
	c := s.Add(Example{Input: "cccc", Output: "3"})
	s.Feedback(a, 1)
	s.Feedback(b, 0) // worst
	s.Feedback(c, 1)
	s.Add(Example{Input: "dddd", Output: "4"})
	if len(s.examples) != 3 {
		t.Fatalf("len = %d, want 3", len(s.examples))
	}
	sel := s.Select("bbbb", 3, BySimilarity)
	for _, x := range sel {
		if x.ID == b {
			t.Error("lowest-reward example survived eviction")
		}
	}
}

func TestMeanRewardPrior(t *testing.T) {
	e := Example{}
	if e.MeanReward() != 0.5 {
		t.Errorf("unused prior = %v, want 0.5", e.MeanReward())
	}
}

func TestSelectMoreThanStored(t *testing.T) {
	s := newStore(0)
	s.Add(Example{Input: "only one", Output: "x"})
	sel := s.Select("only one", 5, BySimilarity)
	if len(sel) != 1 {
		t.Errorf("selected %d, want 1", len(sel))
	}
}

func BenchmarkSelect(b *testing.B) {
	s := newStore(0)
	for i := 0; i < 500; i++ {
		s.Add(Example{Input: "example number " + strings.Repeat("x", i%17), Output: "o"})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Select("example number xxxx", 5, ByPerformance)
	}
}

// Package prompt implements historical prompt selection — the paper's
// Section III-A challenge.
//
// Prompts for data-management tasks carry few-shot examples. Historical
// examples are stored in a vector index; selection can
// be purely similarity-based (the common practice the paper critiques) or
// performance-aware (the paper's envisioned improvement: "incorporate the
// performance of LLMs as a target"). A bounded store evicts examples by
// learned utility, realizing the "which historical prompts should be stored
// within a limited budget" question.
package prompt

import (
	"sort"
	"sync"

	"repro/internal/embed"
	"repro/internal/vector"
)

// Example is one historical (input, output) pair with its observed utility.
type Example struct {
	Input  string
	Output string
	// Reward accumulates observed LLM performance when this example was
	// included in a prompt (1 for a correct downstream answer, 0 for wrong).
	Reward float64
	// Uses counts how often the example was selected.
	Uses int
}

// MeanReward is the example's average observed reward (0.5 prior when
// unused, so fresh examples are explored).
func (e Example) MeanReward() float64 {
	if e.Uses == 0 {
		return 0.5
	}
	return e.Reward / float64(e.Uses)
}

// Selection is how examples are chosen for a new query.
type Selection int

const (
	// BySimilarity ranks purely on embedding similarity — the baseline.
	BySimilarity Selection = iota
	// ByPerformance ranks on similarity blended with observed reward — the
	// paper's performance-aware index target.
	ByPerformance
)

// Store is a budgeted few-shot example store over a vector index.
// Store is safe for concurrent use.
type Store struct {
	mu       sync.Mutex
	emb      *embed.Embedder
	idx      *vector.Flat
	examples map[vector.ID]*Example
	nextID   vector.ID
	budget   int
	// alpha blends reward into the performance-aware score.
	alpha float64
}

// NewStore returns a Store holding at most budget examples (0 = unbounded).
func NewStore(emb *embed.Embedder, budget int) *Store {
	return &Store{
		emb:      emb,
		idx:      vector.NewFlat(emb.Dim(), vector.Cosine),
		examples: make(map[vector.ID]*Example),
		budget:   budget,
		alpha:    0.5,
	}
}

// Add stores an example, evicting the lowest-utility one if over budget.
// It returns the example's ID for later reward feedback.
func (s *Store) Add(ex Example) vector.ID {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.nextID
	s.nextID++
	cp := ex
	s.examples[id] = &cp
	if err := s.idx.Add(vector.Item{ID: id, Vec: s.emb.Text(ex.Input)}); err != nil {
		// IDs are monotonically assigned under the lock; duplicates are a
		// programming error.
		panic(err)
	}
	if s.budget > 0 && len(s.examples) > s.budget {
		s.evictLocked()
	}
	return id
}

// evictLocked removes the example with the lowest retention utility:
// mean reward, tie-broken toward the least-used (oldest information).
// This is the greedy realization of the paper's budgeted retention policy.
func (s *Store) evictLocked() {
	var victim vector.ID
	best := 2.0
	for id, ex := range s.examples {
		u := ex.MeanReward()
		if u < best || (u == best && id < victim) {
			best = u
			victim = id
		}
	}
	delete(s.examples, victim)
	s.idx.Remove(victim)
}

// Selected is one chosen example with its ranking score.
type Selected struct {
	ID      vector.ID
	Example Example
	Score   float64
}

// Select returns up to k examples for the query under the given strategy.
func (s *Store) Select(query string, k int, mode Selection) []Selected {
	s.mu.Lock()
	defer s.mu.Unlock()
	q := s.emb.Text(query)
	// Over-fetch so performance blending can reorder a meaningful pool.
	pool := k * 4
	if pool < 16 {
		pool = 16
	}
	hits := s.idx.Search(q, pool)
	out := make([]Selected, 0, len(hits))
	for _, h := range hits {
		ex, ok := s.examples[h.ID]
		if !ok {
			continue
		}
		score := h.Score
		if mode == ByPerformance {
			score = (1-s.alpha)*h.Score + s.alpha*ex.MeanReward()
		}
		out = append(out, Selected{ID: h.ID, Example: *ex, Score: score})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].ID < out[j].ID
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// Feedback records the downstream outcome (reward in [0,1]) of using an
// example.
func (s *Store) Feedback(id vector.ID, reward float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ex, ok := s.examples[id]; ok {
		ex.Uses++
		ex.Reward += reward
	}
}

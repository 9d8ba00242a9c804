// Package vector implements in-memory vector indexes — brute-force flat,
// IVF (inverted file with a k-means coarse quantizer) and HNSW — plus hybrid
// attribute+vector search with selectable filtering order.
//
// These are the storage and retrieval substrate for the paper's prompt store
// (Section III-A), semantic cache (Section III-C) and multi-modal data lake
// (Sections II-D, III-B2).
package vector

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/embed"
)

// Metric selects how similarity is scored.
type Metric int

const (
	// Cosine scores by cosine similarity (higher is closer).
	Cosine Metric = iota
	// Dot scores by inner product (higher is closer).
	Dot
	// L2 scores by negative Euclidean distance (higher is closer), so that
	// all metrics sort the same way.
	L2
)

// String implements fmt.Stringer.
func (m Metric) String() string {
	switch m {
	case Cosine:
		return "cosine"
	case Dot:
		return "dot"
	case L2:
		return "l2"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// Score returns the similarity of a and b under m; higher is always closer.
func (m Metric) Score(a, b embed.Vector) float64 {
	switch m {
	case Cosine:
		return embed.Cosine(a, b)
	case Dot:
		return embed.Dot(a, b)
	case L2:
		return -embed.L2(a, b)
	default:
		panic("vector: unknown metric")
	}
}

// ID identifies one stored item.
type ID int64

// Item is a stored vector with optional filterable attributes.
type Item struct {
	ID    ID
	Vec   embed.Vector
	Attrs map[string]string
}

// Result is one search hit.
type Result struct {
	ID    ID
	Score float64
}

// Index is the common contract of all vector indexes in this package.
type Index interface {
	// Add inserts items. Adding an ID that already exists is an error.
	Add(items ...Item) error
	// Search returns up to k nearest items to q, best first.
	Search(q embed.Vector, k int) []Result
	// Len reports the number of stored items.
	Len() int
}

// ErrDuplicateID is returned when an item with an existing ID is added.
var ErrDuplicateID = errors.New("vector: duplicate item ID")

// ErrDimMismatch is returned when a vector's length does not match the index.
var ErrDimMismatch = errors.New("vector: dimension mismatch")

// worse reports whether a ranks below b: a lower score, or the same score
// and a higher ID. Over distinct IDs it is a total order, so the k results
// a topK ends up holding depend only on the set offered, never on the
// order of the offers — which is what lets a blocked or pre-rejecting
// scan return exactly what the row-at-a-time scan returns.
func worse(a, b Result) bool {
	return a.Score < b.Score || (a.Score == b.Score && a.ID > b.ID)
}

// topK maintains the best k results seen so far in a min-heap under worse
// (the worst kept result at the root). The sift loops are written out
// rather than going through container/heap, whose Push boxes every Result.
type topK struct {
	k int
	h []Result
}

func newTopK(k int) *topK { return &topK{k: k} }

func (t *topK) offer(r Result) {
	if len(t.h) < t.k {
		t.h = append(t.h, r)
		for i := len(t.h) - 1; i > 0; {
			parent := (i - 1) / 2
			if !worse(t.h[i], t.h[parent]) {
				break
			}
			t.h[i], t.h[parent] = t.h[parent], t.h[i]
			i = parent
		}
		return
	}
	if t.k <= 0 || !worse(t.h[0], r) {
		return
	}
	t.h[0] = r
	for i, n := 0, len(t.h); ; {
		least := i
		if l := 2*i + 1; l < n && worse(t.h[l], t.h[least]) {
			least = l
		}
		if rt := 2*i + 2; rt < n && worse(t.h[rt], t.h[least]) {
			least = rt
		}
		if least == i {
			return
		}
		t.h[i], t.h[least] = t.h[least], t.h[i]
		i = least
	}
}

// byRank orders results best first under worse, for slices.SortFunc.
func byRank(a, b Result) int {
	switch {
	case worse(b, a):
		return -1
	case worse(a, b):
		return 1
	}
	return 0
}

// results returns the collected hits, best first, with deterministic
// tie-breaking on ID. It sorts the heap's own array and hands it out, so t
// is spent afterwards.
func (t *topK) results() []Result {
	if t.h == nil {
		return []Result{}
	}
	slices.SortFunc(t.h, byRank)
	return t.h
}
